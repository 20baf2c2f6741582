(* Lowering: MiniGo AST -> IR control-flow graphs.

   The pass performs:
   - alpha renaming, so every local has a unique name within its function;
   - lambda lifting of goroutine literals and function literals into
     synthetic top-level functions (free variables become extra
     parameters), mirroring how go/ssa materialises anonymous functions;
   - defer materialisation: deferred operations are re-emitted, in LIFO
     order, before every function exit that lexically follows their
     registration — including panics and testing.Fatal exits, matching
     Go's run-defers-on-Goexit semantics the paper's Strategy-II relies on;
   - structured [select], loops and short-circuit conditions into explicit
     basic blocks. *)

module A = Minigo.Ast
module StrMap = Map.Make (String)

type defer_entry = {
  de_op : A.defer_op;
  de_env : string StrMap.t; (* renaming environment at registration *)
}

type loop_ctx = { break_target : int; continue_target : int }

type fstate = {
  mutable blocks : Ir.block list; (* reverse order *)
  mutable cur : Ir.block;
  mutable env : string StrMap.t;
  mutable defers : defer_entry list; (* innermost-first *)
  mutable loops : loop_ctx list;
  var_types : (string, A.typ) Hashtbl.t;
  fname : string;
  mutable tmp_counter : int;
  mutable lift_counter : int;
  glob : gstate;
}

and gstate = {
  mutable pp_counter : int;
  mutable lifted : (string * A.param list * A.typ list * A.block * string StrMap.t * Minigo.Loc.t) list;
      (* name, params, results, body, captured env, loc — queued for lowering *)
  funcs_sigs : (string, A.typ list * A.typ list) Hashtbl.t;
  structs : (string, (string * A.typ) list) Hashtbl.t;
  g_captures : (string, string list) Hashtbl.t;
      (* lifted name -> captured free variables; per-glob so concurrent
         per-file lowerings never share mutable state *)
}

exception Lower_error of string * Minigo.Loc.t

let err loc fmt = Printf.ksprintf (fun m -> raise (Lower_error (m, loc))) fmt

let fresh_pp g =
  g.pp_counter <- g.pp_counter + 1;
  g.pp_counter

let fresh_tmp fs prefix =
  fs.tmp_counter <- fs.tmp_counter + 1;
  Printf.sprintf "%s$%d" prefix fs.tmp_counter

(* block ids are contiguous and equal to the block's index in the final
   array, so [Ir.block] can index directly *)
let new_block fs =
  let bid = List.length fs.blocks in
  let b =
    { Ir.bid; insts = []; term = Ir.Tunreachable; term_loc = Minigo.Loc.none }
  in
  fs.blocks <- b :: fs.blocks;
  b

let init_fstate glob fname =
  let entry =
    { Ir.bid = 0; insts = []; term = Ir.Tunreachable; term_loc = Minigo.Loc.none }
  in
  {
    blocks = [ entry ];
    cur = entry;
    env = StrMap.empty;
    defers = [];
    loops = [];
    var_types = Hashtbl.create 16;
    fname;
    tmp_counter = 0;
    lift_counter = 0;
    glob;
  }

let emit fs ?(deferred = false) ~loc desc =
  let i =
    { Ir.ipp = fresh_pp fs.glob; iloc = loc; idesc = desc; ideferred = deferred }
  in
  fs.cur.insts <- fs.cur.insts @ [ i ];
  i

let set_term fs ~loc term =
  if fs.cur.term = Ir.Tunreachable then begin
    fs.cur.term <- term;
    fs.cur.term_loc <- loc
  end

let switch_to fs b = fs.cur <- b

(* terminated blocks must not receive further code; lower into a fresh
   dead block so the rest of the statement list is still checked *)
let ensure_open fs =
  if fs.cur.term <> Ir.Tunreachable then begin
    let b = new_block fs in
    switch_to fs b
  end

let rename fs x = match StrMap.find_opt x fs.env with Some v -> v | None -> x

let bind fs x ty =
  if x = "_" then "_"
  else begin
    let unique =
      if StrMap.mem x fs.env || Hashtbl.mem fs.var_types x then fresh_tmp fs x
      else x
    in
    fs.env <- StrMap.add x unique fs.env;
    Hashtbl.replace fs.var_types unique ty;
    unique
  end

let typ_of_var fs v =
  match Hashtbl.find_opt fs.var_types v with Some t -> t | None -> A.Tany

(* --------------------------------------------------- free variables *)

let rec fv_expr bound (e : A.expr) acc =
  match e.e with
  | Int _ | Bool _ | Str _ | Nil -> acc
  | Ident x -> if List.mem x bound then acc else x :: acc
  | Binop (_, a, b) -> fv_expr bound b (fv_expr bound a acc)
  | Unop (_, a) | Recv a | Len a -> fv_expr bound a acc
  | Call c -> fv_call bound c acc
  | MakeChan (_, cap) -> (
      match cap with Some c -> fv_expr bound c acc | None -> acc)
  | Field (b, _) -> fv_expr bound b acc
  | StructLit (_, fields) ->
      List.fold_left (fun acc (_, v) -> fv_expr bound v acc) acc fields
  | FuncLit (params, _, body) ->
      let bound' = List.map (fun (p : A.param) -> p.pname) params @ bound in
      fv_block bound' body acc

and fv_call bound (c : A.call) acc =
  let acc =
    match c.callee with
    | Fname _ -> acc
    | Fmethod (e, _) -> fv_expr bound e acc
    | Fexpr e -> fv_expr bound e acc
  in
  List.fold_left (fun acc a -> fv_expr bound a acc) acc c.args

and fv_block bound (b : A.block) acc =
  let _, acc =
    List.fold_left
      (fun (bound, acc) s -> fv_stmt bound s acc)
      (bound, acc) b
  in
  acc

and fv_stmt bound (s : A.stmt) acc : string list * string list =
  match s.s with
  | Decl (x, _, init) ->
      let acc = match init with Some e -> fv_expr bound e acc | None -> acc in
      (x :: bound, acc)
  | Define (xs, e) ->
      let acc = fv_expr bound e acc in
      (xs @ bound, acc)
  | Assign (lv, e) ->
      let acc = fv_expr bound e acc in
      let acc =
        match lv with
        | Lid x -> if List.mem x bound then acc else x :: acc
        | Lfield (b, _) -> fv_expr bound b acc
      in
      (bound, acc)
  | ExprStmt e | Panic e -> (bound, fv_expr bound e acc)
  | Send (ch, v) -> (bound, fv_expr bound v (fv_expr bound ch acc))
  | CloseStmt ch -> (bound, fv_expr bound ch acc)
  | Go c -> (bound, fv_call bound c acc)
  | GoFuncLit (params, body, args) ->
      let acc = List.fold_left (fun acc a -> fv_expr bound a acc) acc args in
      let bound' = List.map (fun (p : A.param) -> p.pname) params @ bound in
      (bound, fv_block bound' body acc)
  | If (c, b1, b2) ->
      let acc = fv_expr bound c acc in
      let acc = fv_block bound b1 acc in
      let acc = match b2 with Some b -> fv_block bound b acc | None -> acc in
      (bound, acc)
  | For (kind, body) ->
      let bound', acc =
        match kind with
        | ForEver -> (bound, acc)
        | ForCond c -> (bound, fv_expr bound c acc)
        | ForClassic (init, cond, post) ->
            let bound', acc =
              match init with Some s -> fv_stmt bound s acc | None -> (bound, acc)
            in
            let acc =
              match cond with Some c -> fv_expr bound' c acc | None -> acc
            in
            let _, acc =
              match post with Some s -> fv_stmt bound' s acc | None -> (bound', acc)
            in
            (bound', acc)
        | ForRangeInt (x, e) | ForRangeChan (Some x, e) ->
            (x :: bound, fv_expr bound e acc)
        | ForRangeChan (None, e) -> (bound, fv_expr bound e acc)
      in
      (bound, fv_block bound' body acc)
  | Select (cases, dflt) ->
      let acc =
        List.fold_left
          (fun acc case ->
            match case with
            | A.CaseRecv (bnd, ok, ch, body) ->
                let acc = fv_expr bound ch acc in
                let bound' =
                  (match bnd with Some x -> [ x ] | None -> [])
                  @ (if ok then [ "ok" ] else [])
                  @ bound
                in
                fv_block bound' body acc
            | A.CaseSend (ch, v, body) ->
                fv_block bound body (fv_expr bound v (fv_expr bound ch acc)))
          acc cases
      in
      let acc = match dflt with Some b -> fv_block bound b acc | None -> acc in
      (bound, acc)
  | Return es -> (bound, List.fold_left (fun acc e -> fv_expr bound e acc) acc es)
  | DeferStmt d ->
      let acc =
        match d with
        | DeferCall c -> fv_call bound c acc
        | DeferSend (ch, v) -> fv_expr bound v (fv_expr bound ch acc)
        | DeferClose ch -> fv_expr bound ch acc
        | DeferFuncLit b -> fv_block bound b acc
      in
      (bound, acc)
  | Break | Continue -> (bound, acc)
  | BlockStmt b -> (bound, fv_block bound b acc)
  | IncDec (lv, _) ->
      let acc =
        match lv with
        | Lid x -> if List.mem x bound then acc else x :: acc
        | Lfield (b, _) -> fv_expr bound b acc
      in
      (bound, acc)

let free_vars_of_lit params body =
  let bound = List.map (fun (p : A.param) -> p.pname) params in
  let fvs = fv_block bound body [] in
  (* dedupe preserving first-occurrence order; drop function names *)
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v || v = "_" then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    (List.rev fvs)

(* -------------------------------------------------------- expressions *)

let is_testing_fatal = function
  | "Fatal" | "Fatalf" | "FailNow" -> true
  | _ -> false

let rec lower_expr fs (e : A.expr) : Ir.operand =
  match e.e with
  | Int n -> Oconst_int n
  | Bool b -> Oconst_bool b
  | Str s -> Oconst_str s
  | Nil -> Onil
  | Ident x ->
      let v = rename fs x in
      if Hashtbl.mem fs.glob.funcs_sigs x && not (StrMap.mem x fs.env) then
        Ir.Oconst_func x
      else Ovar v
  | Binop (op, a, b) ->
      let oa = lower_expr fs a in
      let ob = lower_expr fs b in
      let dst = fresh_tmp fs "t" in
      Hashtbl.replace fs.var_types dst
        (match op with
        | Add | Sub | Mul | Div | Mod -> A.Tint
        | _ -> A.Tbool);
      ignore (emit fs ~loc:e.eloc (Ibinop (dst, op, oa, ob)));
      Ovar dst
  | Unop (op, a) ->
      let oa = lower_expr fs a in
      let dst = fresh_tmp fs "t" in
      Hashtbl.replace fs.var_types dst
        (match op with A.Neg -> A.Tint | A.Not -> A.Tbool);
      ignore (emit fs ~loc:e.eloc (Iunop (dst, op, oa)));
      Ovar dst
  | Call c -> (
      match lower_call fs ~loc:e.eloc ~want:1 c with
      | [ v ] -> Ovar v
      | [] -> Oconst_int 0 (* unit-returning call in expr position *)
      | _ -> err e.eloc "multi-value call in expression position")
  | MakeChan (t, cap) ->
      let static_cap =
        match cap with
        | None -> Some 0
        | Some { e = Int n; _ } -> Some n
        | Some _ -> None
      in
      (match cap with
      | Some ({ e = Int _; _ } | { e = Ident _; _ }) | None -> ()
      | Some c -> ignore (lower_expr fs c));
      let dst = fresh_tmp fs "ch" in
      Hashtbl.replace fs.var_types dst (A.Tchan t);
      ignore (emit fs ~loc:e.eloc (Imake_chan (dst, t, static_cap)));
      Ovar dst
  | Recv ch ->
      let place = lower_place fs ch in
      let dst = fresh_tmp fs "recv" in
      Hashtbl.replace fs.var_types dst
        (match place_typ fs place with A.Tchan t -> t | _ -> A.Tany);
      ignore (emit fs ~loc:e.eloc (Irecv (Some dst, place, false)));
      Ovar dst
  | Field (b, f) ->
      let base = as_var fs b in
      let dst = fresh_tmp fs "fld" in
      Hashtbl.replace fs.var_types dst (field_typ fs (typ_of_var fs base) f);
      ignore (emit fs ~loc:e.eloc (Ifield_load (dst, base, f)));
      Ovar dst
  | StructLit (name, fields) ->
      let dst = fresh_tmp fs "s" in
      Hashtbl.replace fs.var_types dst (A.Tstruct name);
      ignore (emit fs ~loc:e.eloc (Imake_struct (dst, name)));
      List.iter
        (fun (f, v) ->
          let ov = lower_expr fs v in
          ignore (emit fs ~loc:e.eloc (Ifield_store (dst, f, ov))))
        fields;
      Ovar dst
  | FuncLit (params, results, body) ->
      let name = lift_lit fs ~loc:e.eloc params results body in
      Oconst_func name
  | Len a ->
      let oa = lower_expr fs a in
      let dst = fresh_tmp fs "len" in
      Hashtbl.replace fs.var_types dst A.Tint;
      ignore (emit fs ~loc:e.eloc (Icall ([ dst ], "$len", [ oa ])));
      Ovar dst

and field_typ fs t f =
  match t with
  | A.Tstruct name -> (
      match Hashtbl.find_opt fs.glob.structs name with
      | Some fields -> ( match List.assoc_opt f fields with Some t -> t | None -> A.Tany)
      | None -> A.Tany)
  | A.Tcontext when f = "$done" -> A.Tchan A.Tunit
  | _ -> A.Tany

(* Lower an expression that denotes a primitive (channel / mutex) into a
   place, preserving one level of field access so disentangling and alias
   analysis can distinguish s.mu from s.ch. *)
and lower_place fs (e : A.expr) : Ir.place =
  match e.e with
  | Ident x -> Pvar (rename fs x)
  | Field (b, f) -> Pfield (as_var fs b, f)
  | Call { callee = Fmethod (recv, "Done"); args = [] } ->
      (* ctx.Done(): the done channel is modelled as field $done of ctx *)
      Pfield (as_var fs recv, "$done")
  | _ ->
      let o = lower_expr fs e in
      Pvar (as_operand_var fs e.eloc o)

and place_typ fs = function
  | Ir.Pvar v -> typ_of_var fs v
  | Ir.Pfield (v, f) -> field_typ fs (typ_of_var fs v) f

and as_var fs (e : A.expr) : Ir.var =
  match e.e with
  | Ident x -> rename fs x
  | _ ->
      let o = lower_expr fs e in
      as_operand_var fs e.eloc o

and as_operand_var fs loc (o : Ir.operand) : Ir.var =
  match o with
  | Ovar v -> v
  | other ->
      let dst = fresh_tmp fs "t" in
      ignore (emit fs ~loc (Iassign (dst, other)));
      dst

(* Lower a call; returns result vars (length = want when want >= 0). *)
and lower_call fs ~loc ~want (c : A.call) : Ir.var list =
  let fresh_results n tys =
    List.init n (fun i ->
        let v = fresh_tmp fs "r" in
        (match List.nth_opt tys i with
        | Some t -> Hashtbl.replace fs.var_types v t
        | None -> ());
        v)
  in
  match c.callee with
  | Fname "println" | Fname "print" ->
      let args = List.map (lower_expr fs) c.args in
      ignore (emit fs ~loc (Iprint args));
      []
  | Fname "sleep" ->
      let args = List.map (lower_expr fs) c.args in
      ignore (emit fs ~loc (Isleep (List.hd args)));
      []
  | Fname "errorf" ->
      let args = List.map (lower_expr fs) c.args in
      let r = fresh_tmp fs "err" in
      Hashtbl.replace fs.var_types r A.Terror;
      ignore (emit fs ~loc (Icall ([ r ], "$errorf", args)));
      [ r ]
  | Fname "background" ->
      let r = fresh_tmp fs "ctx" in
      Hashtbl.replace fs.var_types r A.Tcontext;
      ignore (emit fs ~loc (Icall ([ r ], "$background", [])));
      [ r ]
  | Fname "cancel" ->
      (* cancelling a context closes its $done channel, which is exactly
         what the detectors need to see *)
      let ctx = as_var fs (List.hd c.args) in
      ignore (emit fs ~loc (Iclose (Pfield (ctx, "$done"))));
      []
  | Fname f when StrMap.mem f fs.env ->
      (* a local variable shadowing / holding a function value *)
      let args = List.map (lower_expr fs) c.args in
      let n = max want 0 in
      let rets = fresh_results n [] in
      ignore (emit fs ~loc (Icall_indirect (rets, rename fs f, args)));
      rets
  | Fname f ->
      let args = List.map (lower_expr fs) c.args in
      let ret_tys =
        match Hashtbl.find_opt fs.glob.funcs_sigs f with
        | Some (_, rets) -> rets
        | None -> []
      in
      let n = if want >= 0 then want else List.length ret_tys in
      let n = max n (if want = 1 && ret_tys = [] then 0 else n) in
      let n = min n (max (List.length ret_tys) n) in
      let n = if ret_tys = [] && want = 1 then 0 else n in
      let rets = fresh_results n ret_tys in
      ignore (emit fs ~loc (Icall (rets, f, args)));
      rets
  | Fexpr e ->
      let fv = as_var fs e in
      let args = List.map (lower_expr fs) c.args in
      let n = max want 0 in
      let rets = fresh_results n [] in
      ignore (emit fs ~loc (Icall_indirect (rets, fv, args)));
      rets
  | Fmethod (recv, m) -> lower_method fs ~loc ~want recv m c.args

and lower_method fs ~loc ~want recv m args : Ir.var list =
  let recv_t =
    match recv.A.e with
    | Ident x -> typ_of_var fs (rename fs x)
    | Field (b, f) -> field_typ fs (typ_of_var fs (as_var fs b)) f
    | _ -> A.Tany
  in
  let place () = lower_place fs recv in
  match (recv_t, m) with
  | A.Tmutex, "Lock" ->
      ignore (emit fs ~loc (Ilock (place ())));
      []
  | A.Tmutex, "Unlock" ->
      ignore (emit fs ~loc (Iunlock (place ())));
      []
  | A.Twaitgroup, "Add" ->
      let o = lower_expr fs (List.hd args) in
      ignore (emit fs ~loc (Iwg_add (place (), o)));
      []
  | A.Twaitgroup, "Done" ->
      ignore (emit fs ~loc (Iwg_done (place ())));
      []
  | A.Twaitgroup, "Wait" ->
      ignore (emit fs ~loc (Iwg_wait (place ())));
      []
  | A.Tcond, "Wait" ->
      ignore (emit fs ~loc (Irecv (None, place (), false)));
      []
  | A.Tcond, "Signal" ->
      (* select { case c <- unit: default: } — never blocks; a signal
         with no waiting receiver is lost *)
      let p = place () in
      let sel_pp = fresh_pp fs.glob in
      let join = new_block fs in
      let sent = new_block fs in
      let saved = fs.cur in
      switch_to fs sent;
      set_term fs ~loc (Tjump join.bid);
      switch_to fs saved;
      set_term fs ~loc
        (Tselect
           ( [ { Ir.arm_op = Arm_send (p, Oconst_int 0); arm_target = sent.bid } ],
             Some join.bid,
             sel_pp ));
      switch_to fs join;
      []
  | A.Tcond, "Broadcast" ->
      (* for { select { case c <- unit: | default: break } } *)
      let p = place () in
      let header = new_block fs in
      let sent = new_block fs in
      let exit = new_block fs in
      set_term fs ~loc (Tjump header.bid);
      switch_to fs sent;
      set_term fs ~loc (Tjump header.bid);
      switch_to fs header;
      let sel_pp = fresh_pp fs.glob in
      set_term fs ~loc
        (Tselect
           ( [ { Ir.arm_op = Arm_send (p, Oconst_int 0); arm_target = sent.bid } ],
             Some exit.bid,
             sel_pp ));
      switch_to fs exit;
      []
  | A.Ttesting, meth when is_testing_fatal meth ->
      List.iter (fun a -> ignore (lower_expr fs a)) args;
      ignore (emit fs ~loc (Itesting_fatal meth));
      (* Fatal terminates the goroutine after running defers *)
      emit_defers fs ~loc fs.defers;
      set_term fs ~loc Ir.Texit;
      ensure_open fs;
      []
  | A.Ttesting, _ ->
      List.iter (fun a -> ignore (lower_expr fs a)) args;
      ignore (emit fs ~loc (Inop ("t." ^ m)));
      []
  | A.Tcontext, "Done" ->
      let dst = fresh_tmp fs "done" in
      Hashtbl.replace fs.var_types dst (A.Tchan A.Tunit);
      let base = as_var fs recv in
      ignore (emit fs ~loc (Ifield_load (dst, base, "$done")));
      [ dst ]
  | A.Tcontext, "Err" | A.Terror, "Error" ->
      let dst = fresh_tmp fs "err" in
      Hashtbl.replace fs.var_types dst A.Terror;
      ignore (emit fs ~loc (Icall ([ dst ], "$ctx_err", [])));
      [ dst ]
  | _, _ ->
      (* unknown method: treated as an opaque call *)
      let ops = List.map (lower_expr fs) args in
      let n = max want 0 in
      let rets =
        List.init n (fun _ ->
            let v = fresh_tmp fs "r" in
            Hashtbl.replace fs.var_types v A.Tany;
            v)
      in
      ignore (emit fs ~loc (Icall (rets, "$method_" ^ m, ops)));
      rets

and lift_lit fs ~loc params results body : string =
  fs.lift_counter <- fs.lift_counter + 1;
  let name = Printf.sprintf "%s$fn%d" fs.fname fs.lift_counter in
  let fvs = free_vars_of_lit params body in
  let extra_params =
    List.map
      (fun v ->
        let renamed = rename fs v in
        { A.pname = v; ptyp = typ_of_var fs renamed })
      fvs
  in
  fs.glob.lifted <-
    (name, params @ extra_params, results, body, fs.env, loc) :: fs.glob.lifted;
  Hashtbl.replace fs.glob.funcs_sigs name
    ( List.map (fun (p : A.param) -> p.ptyp) (params @ extra_params),
      results );
  (* record the capture list so callers pass the extra args *)
  Hashtbl.replace fs.glob.g_captures name fvs;
  name

(* Emit deferred operations (LIFO) at a function exit. *)
and emit_defers fs ~loc defers =
  List.iter
    (fun de ->
      let saved = fs.env in
      fs.env <- de.de_env;
      (match de.de_op with
      | A.DeferCall c -> ignore (lower_call fs ~loc ~want:0 c)
      | A.DeferSend (ch, v) ->
          let p = lower_place fs ch in
          let o = lower_expr fs v in
          ignore (emit fs ~deferred:true ~loc (Isend (p, o)))
      | A.DeferClose ch ->
          let p = lower_place fs ch in
          ignore (emit fs ~deferred:true ~loc (Iclose p))
      | A.DeferFuncLit body -> lower_block fs body);
      fs.env <- saved)
    defers

(* --------------------------------------------------------- statements *)

and lower_block fs (b : A.block) : unit =
  let saved = fs.env in
  List.iter (lower_stmt fs) b;
  fs.env <- saved

and lower_stmt fs (s : A.stmt) : unit =
  ensure_open fs;
  let loc = s.sloc in
  match s.s with
  | Decl (x, ty, init) -> (
      match init with
      | Some e ->
          let o = lower_expr fs e in
          let t =
            match ty with
            | Some t -> t
            | None -> operand_typ fs o
          in
          let v = bind fs x t in
          if v <> "_" then ignore (emit fs ~loc (Iassign (v, o)))
      | None ->
          let t = Option.value ty ~default:A.Tany in
          let v = bind fs x t in
          if v <> "_" then
            let desc =
              match t with
              | A.Tmutex | A.Twaitgroup | A.Tstruct _ ->
                  (* zero values of sync primitives are creation sites *)
                  Ir.Imake_struct (v, A.typ_to_string t)
              | A.Tcond ->
                  (* the paper's §6 encoding: a condition variable is an
                     unbuffered channel *)
                  Ir.Imake_chan (v, A.Tunit, Some 0)
              | _ -> Ir.Iassign (v, zero_value t)
            in
            ignore (emit fs ~loc desc))
  | Define (xs, e) -> lower_define fs ~loc xs e
  | Assign (lv, e) -> (
      let o = lower_expr fs e in
      match lv with
      | Lid "_" -> ()
      | Lid x -> ignore (emit fs ~loc (Iassign (rename fs x, o)))
      | Lfield (b, f) ->
          let base = as_var fs b in
          ignore (emit fs ~loc (Ifield_store (base, f, o))))
  | ExprStmt e -> (
      match e.e with
      | Call c -> ignore (lower_call fs ~loc ~want:0 c)
      | Recv ch ->
          let p = lower_place fs ch in
          ignore (emit fs ~loc (Irecv (None, p, false)))
      | _ -> ignore (lower_expr fs e))
  | Send (ch, v) ->
      let p = lower_place fs ch in
      let o = lower_expr fs v in
      ignore (emit fs ~loc (Isend (p, o)))
  | CloseStmt ch ->
      let p = lower_place fs ch in
      ignore (emit fs ~loc (Iclose p))
  | Go c -> (
      match c.callee with
      | Fname f when not (StrMap.mem f fs.env) ->
          let args = List.map (lower_expr fs) c.args in
          ignore (emit fs ~loc (Igo (f, args)))
      | _ ->
          (* go on a method or function value: lower as opaque spawn *)
          let args = List.map (lower_expr fs) c.args in
          ignore (emit fs ~loc (Igo ("$indirect", args))))
  | GoFuncLit (params, body, args) ->
      let name = lift_lit fs ~loc params [] body in
      let explicit = List.map (lower_expr fs) args in
      let captured =
        match Hashtbl.find_opt fs.glob.g_captures name with
        | Some fvs -> List.map (fun v -> Ir.Ovar (rename fs v)) fvs
        | None -> []
      in
      ignore (emit fs ~loc (Igo (name, explicit @ captured)))
  | If (cond, then_b, else_b) ->
      let c = lower_cond fs cond in
      let bthen = new_block fs in
      let belse = new_block fs in
      let bjoin = new_block fs in
      set_term fs ~loc (Tbranch (c, bthen.bid, belse.bid));
      switch_to fs bthen;
      lower_block fs then_b;
      set_term fs ~loc (Tjump bjoin.bid);
      switch_to fs belse;
      (match else_b with Some b -> lower_block fs b | None -> ());
      set_term fs ~loc (Tjump bjoin.bid);
      switch_to fs bjoin
  | For (kind, body) -> lower_for fs ~loc kind body
  | Select (cases, dflt) -> lower_select fs ~loc cases dflt
  | Return es ->
      let os = List.map (lower_expr fs) es in
      emit_defers fs ~loc fs.defers;
      set_term fs ~loc (Treturn os);
      ensure_open fs
  | DeferStmt d -> fs.defers <- { de_op = d; de_env = fs.env } :: fs.defers
  | Break -> (
      match fs.loops with
      | { break_target; _ } :: _ ->
          set_term fs ~loc (Tjump break_target);
          ensure_open fs
      | [] -> err loc "break outside loop")
  | Continue -> (
      match fs.loops with
      | { continue_target; _ } :: _ ->
          set_term fs ~loc (Tjump continue_target);
          ensure_open fs
      | [] -> err loc "continue outside loop")
  | Panic e ->
      ignore (lower_expr fs e);
      emit_defers fs ~loc fs.defers;
      set_term fs ~loc Tpanic;
      ensure_open fs
  | BlockStmt b -> lower_block fs b
  | IncDec (lv, up) -> (
      let op = if up then A.Add else A.Sub in
      match lv with
      | Lid x ->
          let v = rename fs x in
          ignore (emit fs ~loc (Ibinop (v, op, Ovar v, Oconst_int 1)))
      | Lfield (b, f) ->
          let base = as_var fs b in
          let tmp = fresh_tmp fs "t" in
          ignore (emit fs ~loc (Ifield_load (tmp, base, f)));
          ignore (emit fs ~loc (Ibinop (tmp, op, Ovar tmp, Oconst_int 1)));
          ignore (emit fs ~loc (Ifield_store (base, f, Ovar tmp))))

and operand_typ fs = function
  | Ir.Ovar v -> typ_of_var fs v
  | Ir.Oconst_int _ -> A.Tint
  | Ir.Oconst_bool _ -> A.Tbool
  | Ir.Oconst_str _ -> A.Tstring
  | Ir.Oconst_func f -> (
      match Hashtbl.find_opt fs.glob.funcs_sigs f with
      | Some (a, r) -> A.Tfunc (a, r)
      | None -> A.Tany)
  | Ir.Onil -> A.Tany
  | Ir.Oplace p -> place_typ fs p

and zero_value = function
  | A.Tint -> Ir.Oconst_int 0
  | A.Tbool -> Ir.Oconst_bool false
  | A.Tstring -> Ir.Oconst_str ""
  | _ -> Ir.Onil

and lower_define fs ~loc xs (e : A.expr) =
  match (xs, e.e) with
  | [ x; ok ], Recv ch ->
      let p = lower_place fs ch in
      let t = match place_typ fs p with A.Tchan t -> t | _ -> A.Tany in
      let vx = bind fs x t in
      ignore
        (emit fs ~loc (Irecv ((if vx = "_" then None else Some vx), p, false)));
      let vok = bind fs ok A.Tbool in
      if vok <> "_" then ignore (emit fs ~loc (Icall ([ vok ], "$recv_ok", [])))
  | _, Call c ->
      let rets = lower_call fs ~loc ~want:(List.length xs) c in
      List.iteri
        (fun i x ->
          let r = List.nth_opt rets i in
          match r with
          | Some r ->
              let v = bind fs x (typ_of_var fs r) in
              if v <> "_" then ignore (emit fs ~loc (Iassign (v, Ovar r)))
          | None ->
              let v = bind fs x A.Tany in
              if v <> "_" then ignore (emit fs ~loc (Iassign (v, Onil))))
        xs
  | [ x ], _ ->
      let o = lower_expr fs e in
      let v = bind fs x (operand_typ fs o) in
      if v <> "_" then ignore (emit fs ~loc (Iassign (v, o)))
  | _ -> err loc "unsupported multi-value define"

and lower_cond fs (e : A.expr) : Ir.cond =
  (* keep comparisons of simple operands structured for feasibility
     filtering; lower everything else to an opaque boolean *)
  let simple (e : A.expr) : Ir.operand option =
    match e.e with
    | Int n -> Some (Oconst_int n)
    | Bool b -> Some (Oconst_bool b)
    | Str s -> Some (Oconst_str s)
    | Nil -> Some Onil
    | Ident x -> Some (Ovar (rename fs x))
    | _ -> None
  in
  match e.e with
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) -> (
      match (simple a, simple b) with
      | Some oa, Some ob -> Ccmp (op, oa, ob)
      | _ ->
          let o = lower_expr fs e in
          Cvar (as_operand_var fs e.eloc o))
  | Unop (Not, inner) -> Cnot (lower_cond fs inner)
  | Ident x -> Cvar (rename fs x)
  | Bool true -> Ccmp (A.Eq, Oconst_int 0, Oconst_int 0)
  | Bool false -> Ccmp (A.Neq, Oconst_int 0, Oconst_int 0)
  | _ ->
      let o = lower_expr fs e in
      Cvar (as_operand_var fs e.eloc o)

and lower_for fs ~loc kind body =
  match kind with
  | A.ForEver ->
      let header = new_block fs in
      let exit = new_block fs in
      set_term fs ~loc (Tjump header.bid);
      switch_to fs header;
      fs.loops <-
        { break_target = exit.bid; continue_target = header.bid } :: fs.loops;
      lower_block fs body;
      fs.loops <- List.tl fs.loops;
      set_term fs ~loc (Tjump header.bid);
      switch_to fs exit
  | A.ForCond cond ->
      let header = new_block fs in
      let bbody = new_block fs in
      let exit = new_block fs in
      set_term fs ~loc (Tjump header.bid);
      switch_to fs header;
      let c = lower_cond fs cond in
      set_term fs ~loc (Tbranch (c, bbody.bid, exit.bid));
      switch_to fs bbody;
      fs.loops <-
        { break_target = exit.bid; continue_target = header.bid } :: fs.loops;
      lower_block fs body;
      fs.loops <- List.tl fs.loops;
      set_term fs ~loc (Tjump header.bid);
      switch_to fs exit
  | A.ForClassic (init, cond, post) ->
      let saved = fs.env in
      Option.iter (lower_stmt fs) init;
      let header = new_block fs in
      let bbody = new_block fs in
      let bpost = new_block fs in
      let exit = new_block fs in
      set_term fs ~loc (Tjump header.bid);
      switch_to fs header;
      (match cond with
      | Some cond ->
          let c = lower_cond fs cond in
          set_term fs ~loc (Tbranch (c, bbody.bid, exit.bid))
      | None -> set_term fs ~loc (Tjump bbody.bid));
      switch_to fs bbody;
      fs.loops <-
        { break_target = exit.bid; continue_target = bpost.bid } :: fs.loops;
      lower_block fs body;
      fs.loops <- List.tl fs.loops;
      set_term fs ~loc (Tjump bpost.bid);
      switch_to fs bpost;
      Option.iter (lower_stmt fs) post;
      set_term fs ~loc (Tjump header.bid);
      switch_to fs exit;
      fs.env <- saved
  | A.ForRangeInt (x, e) ->
      let saved = fs.env in
      let bound = lower_expr fs e in
      let i = bind fs x A.Tint in
      ignore (emit fs ~loc (Iassign (i, Oconst_int 0)));
      let header = new_block fs in
      let bbody = new_block fs in
      let bpost = new_block fs in
      let exit = new_block fs in
      set_term fs ~loc (Tjump header.bid);
      switch_to fs header;
      set_term fs ~loc (Tbranch (Ccmp (A.Lt, Ovar i, bound), bbody.bid, exit.bid));
      switch_to fs bbody;
      fs.loops <-
        { break_target = exit.bid; continue_target = bpost.bid } :: fs.loops;
      lower_block fs body;
      fs.loops <- List.tl fs.loops;
      set_term fs ~loc (Tjump bpost.bid);
      switch_to fs bpost;
      ignore (emit fs ~loc (Ibinop (i, A.Add, Ovar i, Oconst_int 1)));
      set_term fs ~loc (Tjump header.bid);
      switch_to fs exit;
      fs.env <- saved
  | A.ForRangeChan (bindv, e) ->
      let saved = fs.env in
      let p = lower_place fs e in
      let header = new_block fs in
      let bbody = new_block fs in
      let exit = new_block fs in
      set_term fs ~loc (Tjump header.bid);
      switch_to fs header;
      let v =
        match bindv with
        | Some x ->
            let t = match place_typ fs p with A.Tchan t -> t | _ -> A.Tany in
            let v = bind fs x t in
            if v = "_" then None else Some v
        | None -> None
      in
      let recv = emit fs ~loc (Irecv (v, p, true)) in
      set_term fs ~loc (Tbranch (Copaque recv.ipp, bbody.bid, exit.bid));
      switch_to fs bbody;
      fs.loops <-
        { break_target = exit.bid; continue_target = header.bid } :: fs.loops;
      lower_block fs body;
      fs.loops <- List.tl fs.loops;
      set_term fs ~loc (Tjump header.bid);
      switch_to fs exit;
      fs.env <- saved

and lower_select fs ~loc cases dflt =
  let sel_pp = fresh_pp fs.glob in
  let join = new_block fs in
  let arms =
    List.map
      (fun case ->
        match case with
        | A.CaseRecv (bnd, ok, ch, body) ->
            let p = lower_place fs ch in
            let btarget = new_block fs in
            let saved_env = fs.env in
            let saved_cur = fs.cur in
            switch_to fs btarget;
            let v =
              match bnd with
              | Some x when x <> "_" ->
                  let t =
                    match place_typ fs p with A.Tchan t -> t | _ -> A.Tany
                  in
                  Some (bind fs x t)
              | _ -> None
            in
            if ok then begin
              let vok = bind fs "ok" A.Tbool in
              ignore (emit fs ~loc (Icall ([ vok ], "$recv_ok", [])))
            end;
            lower_block fs body;
            set_term fs ~loc (Tjump join.bid);
            fs.env <- saved_env;
            switch_to fs saved_cur;
            { Ir.arm_op = Arm_recv (p, v); arm_target = btarget.bid }
        | A.CaseSend (ch, v, body) ->
            let p = lower_place fs ch in
            let o = lower_expr fs v in
            let btarget = new_block fs in
            let saved_cur = fs.cur in
            switch_to fs btarget;
            lower_block fs body;
            set_term fs ~loc (Tjump join.bid);
            switch_to fs saved_cur;
            { Ir.arm_op = Arm_send (p, o); arm_target = btarget.bid })
      cases
  in
  let dflt_target =
    match dflt with
    | Some body ->
        let b = new_block fs in
        let saved_cur = fs.cur in
        switch_to fs b;
        lower_block fs body;
        set_term fs ~loc (Tjump join.bid);
        switch_to fs saved_cur;
        Some b.bid
    | None -> None
  in
  set_term fs ~loc (Tselect (arms, dflt_target, sel_pp));
  switch_to fs join

(* ------------------------------------------------------------- driver *)

let finalize fs ~name ~params ~result_types ~is_goroutine_body ~parent ~floc :
    Ir.func =
  (* implicit return at the end of the function body — but only when the
     final block is reachable; dead blocks created after explicit returns
     stay unreachable so they cannot pollute defers or dominance *)
  let cur_reachable =
    fs.cur.bid = 0
    || List.exists
         (fun (b : Ir.block) ->
           b != fs.cur && List.mem fs.cur.bid (Ir.successors b))
         fs.blocks
    || fs.cur.insts <> []
  in
  if fs.cur.term = Ir.Tunreachable && cur_reachable then begin
    emit_defers fs ~loc:floc fs.defers;
    fs.cur.term <- Treturn (List.map (fun t -> zero_value t) result_types)
  end;
  let blocks =
    List.sort (fun (a : Ir.block) b -> compare a.bid b.bid) (List.rev fs.blocks)
    |> Array.of_list
  in
  let var_types = Hashtbl.create 16 in
  Hashtbl.iter (fun k v -> Hashtbl.replace var_types k v) fs.var_types;
  {
    Ir.name;
    params;
    result_types;
    blocks;
    entry = 0;
    is_goroutine_body;
    parent;
    floc;
    var_types;
  }

let lower_function glob ~name ~(params : A.param list) ~results ~body
    ~is_goroutine_body ~parent ~env ~floc : Ir.func =
  let fs = init_fstate glob name in
  fs.env <- env;
  let ir_params =
    List.map
      (fun (p : A.param) ->
        let v = bind fs p.pname p.ptyp in
        (v, p.ptyp))
      params
  in
  lower_block fs body;
  finalize fs ~name ~params:ir_params ~result_types:results ~is_goroutine_body
    ~parent ~floc

(* --------------------------------------------- per-file compilation --- *)

(* The frontend lowers each file independently (possibly in parallel,
   possibly from a per-file cache), with program points local to the
   file and starting at 1.  [assemble] then rebases every file's points
   by the sum of the preceding files' point counts — a prefix sum over
   the file list, so the numbering depends only on the file contents
   and their order, never on the schedule or on which files came from
   cache. *)

type sigs = {
  sg_funcs : (string, A.typ list * A.typ list) Hashtbl.t;
  sg_structs : (string, (string * A.typ) list) Hashtbl.t;
}

(* Typechecking rewrites only function bodies, so the signature items
   extracted from the *parsed* files build the same table as
   [build_sigs] on the typed program — which is what lets the engine
   feed this from its per-file signature cache without re-parsing. *)
let sigs_of_signatures (items : Minigo.Typecheck.sig_item list) : sigs =
  let sg_funcs = Hashtbl.create 16 in
  let sg_structs = Hashtbl.create 16 in
  List.iter
    (function
      | `F (name, ptys, results) -> Hashtbl.replace sg_funcs name (ptys, results)
      | `S (name, fields) -> Hashtbl.replace sg_structs name fields)
    items;
  { sg_funcs; sg_structs }

let build_sigs (prog : A.program) : sigs =
  sigs_of_signatures
    (List.concat_map Minigo.Typecheck.file_signatures prog)

type lowered_file = {
  lf_funcs : (string * Ir.func) list; (* in lowering order *)
  lf_pp_count : int;                  (* program points this file consumed *)
}

let lower_file (sigs : sigs) (file : A.file) : lowered_file =
  let glob =
    {
      pp_counter = 0;
      lifted = [];
      (* lambda lifting registers the lifted literal's signature as it
         goes; copy the shared base so files never write to it *)
      funcs_sigs = Hashtbl.copy sigs.sg_funcs;
      structs = sigs.sg_structs;
      g_captures = Hashtbl.create 16;
    }
  in
  let funcs = ref [] in
  List.iter
    (fun d ->
      match d with
      | A.Dfunc fd ->
          let f =
            lower_function glob ~name:fd.fname ~params:fd.params
              ~results:fd.results ~body:fd.body ~is_goroutine_body:false
              ~parent:None ~env:StrMap.empty ~floc:fd.floc
          in
          funcs := (fd.fname, f) :: !funcs
      | A.Dstruct _ -> ())
    file.decls;
  (* lower this file's lifted literals; lifting can enqueue more *)
  let rec drain () =
    match glob.lifted with
    | [] -> ()
    | (name, params, results, body, _env, loc) :: rest ->
        glob.lifted <- rest;
        let parent =
          match String.index_opt name '$' with
          | Some i -> Some (String.sub name 0 i)
          | None -> None
        in
        let f =
          lower_function glob ~name ~params ~results ~body
            ~is_goroutine_body:true ~parent ~env:StrMap.empty ~floc:loc
        in
        funcs := (name, f) :: !funcs;
        drain ()
  in
  drain ();
  {
    lf_funcs = List.rev !funcs;
    lf_pp_count = glob.pp_counter;
  }

(* Accessors for per-file analysis passes that extract local facts from
   a lowered file before its program points are rebased. *)
let file_funcs (lf : lowered_file) = lf.lf_funcs
let file_pp_count (lf : lowered_file) = lf.lf_pp_count

(* Rebase a function's program points by [off].  Blocks are mutable
   records, so the copy must be deep: a cached [lowered_file] may be
   assembled at different offsets in different programs.  Program
   points appear in instruction [ipp]s, [Tselect] terminators, and
   [Copaque] conditions (inside [Tbranch], possibly under [Cnot]);
   nothing else in the IR carries one. *)
let rec rebase_cond off (c : Ir.cond) : Ir.cond =
  match c with
  | Ir.Copaque pp -> Ir.Copaque (pp + off)
  | Ir.Cnot c -> Ir.Cnot (rebase_cond off c)
  | Ir.Cvar _ | Ir.Ccmp _ -> c

let rebase_term off (t : Ir.terminator) : Ir.terminator =
  match t with
  | Ir.Tbranch (c, a, b) -> Ir.Tbranch (rebase_cond off c, a, b)
  | Ir.Tselect (arms, dflt, pp) -> Ir.Tselect (arms, dflt, pp + off)
  | Ir.Tjump _ | Ir.Treturn _ | Ir.Tpanic | Ir.Texit | Ir.Tunreachable -> t

let rebase_func off (f : Ir.func) : Ir.func =
  if off = 0 then f
  else
    {
      f with
      Ir.blocks =
        Array.map
          (fun (b : Ir.block) ->
            {
              b with
              Ir.insts =
                List.map
                  (fun (i : Ir.inst) -> { i with Ir.ipp = i.Ir.ipp + off })
                  b.Ir.insts;
              term = rebase_term off b.Ir.term;
            })
          f.Ir.blocks;
    }

let assemble (prog : A.program) (files : lowered_file list) : Ir.program =
  let funcs = Hashtbl.create 16 in
  let off = ref 0 in
  List.iter
    (fun lf ->
      List.iter
        (fun (name, f) -> Hashtbl.replace funcs name (rebase_func !off f))
        lf.lf_funcs;
      off := !off + lf.lf_pp_count)
    files;
  let main = if Hashtbl.mem funcs "main" then Some "main" else None in
  { Ir.funcs; main; source = prog }

let lower_program (prog : A.program) : Ir.program =
  let sigs = build_sigs prog in
  assemble prog (List.map (lower_file sigs) prog)
