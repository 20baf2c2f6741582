(* Type checker for MiniGo.

   Beyond rejecting ill-typed programs, the checker performs the one AST
   rewrite the parser defers: `for x := range e` is re-classified as a
   channel-drain loop when [e] is a channel.  The checker also records the
   inferred type of every channel-creating expression; the IR lowering and
   the detectors rely on those annotations indirectly by re-running
   [type_of_expr] through a checked environment. *)

exception Type_error of string * Loc.t

module StrMap = Map.Make (String)

(* [vars] is a persistent map behind a ref: a scope takes a snapshot in
   O(1) ([clone_env]) where a table would be copied whole, and records
   copied with [{ env with ... }] still share the scope, as they would
   share a table. *)
type env = {
  vars : Ast.typ StrMap.t ref;
  funcs : (string, Ast.typ list * Ast.typ list) Hashtbl.t;
  structs : (string, (string * Ast.typ) list) Hashtbl.t;
  results : Ast.typ list; (* result types of the enclosing function *)
}

let err loc fmt = Printf.ksprintf (fun m -> raise (Type_error (m, loc))) fmt

let clone_env env = { env with vars = ref !(env.vars) }
let find_var env x = StrMap.find_opt x !(env.vars)
let set_var env x t = env.vars := StrMap.add x t !(env.vars)

let lookup_var env loc x =
  match find_var env x with
  | Some t -> t
  | None -> err loc "unbound variable %s" x

let lookup_func env loc f =
  match Hashtbl.find_opt env.funcs f with
  | Some sg -> Some sg
  | None -> (
      (* variables holding function values are callable too *)
      match find_var env f with
      | Some (Tfunc (a, r)) -> Some (a, r)
      | _ -> err loc "unknown function %s" f)

let rec compatible (a : Ast.typ) (b : Ast.typ) =
  match (a, b) with
  | Tany, _ | _, Tany -> true
  | Terror, Tstring | Tstring, Terror -> true (* errors are string-like *)
  | Terror, Tunit | Tunit, Terror -> true (* nil error *)
  | Tchan x, Tchan y -> compatible x y
  | Tfunc (a1, r1), Tfunc (a2, r2) ->
      List.length a1 = List.length a2
      && List.length r1 = List.length r2
      && List.for_all2 compatible a1 a2
      && List.for_all2 compatible r1 r2
  | x, y -> x = y

(* Built-in method signatures, dispatched on receiver type. *)
let method_sig (recv : Ast.typ) (m : string) : (Ast.typ list * Ast.typ list) option =
  match (recv, m) with
  | Tmutex, ("Lock" | "Unlock") -> Some ([], [])
  | Twaitgroup, "Add" -> Some ([ Tint ], [])
  | Twaitgroup, ("Done" | "Wait") -> Some ([], [])
  | Tcond, ("Wait" | "Signal" | "Broadcast") -> Some ([], [])
  | Ttesting, ("Fatal" | "Fatalf" | "Error" | "Errorf" | "Log" | "Logf" | "Skip") ->
      Some ([ Tstring ], [])
  | Ttesting, ("FailNow" | "Fail") -> Some ([], [])
  | Tcontext, "Done" -> Some ([], [ Tchan Tunit ])
  | Tcontext, "Err" -> Some ([], [ Terror ])
  | Terror, "Error" -> Some ([], [ Tstring ])
  | _ -> None

let rec type_of_expr env (e : Ast.expr) : Ast.typ =
  match e.e with
  | Int _ -> Tint
  | Bool _ -> Tbool
  | Str _ -> Tstring
  | Nil -> Tany
  | Ident x -> (
      match find_var env x with
      | Some t -> t
      | None -> (
          (* a top-level function used as a value *)
          match Hashtbl.find_opt env.funcs x with
          | Some (args, rets) -> Tfunc (args, rets)
          | None -> err e.eloc "unbound variable %s" x))
  | Binop (op, a, b) -> (
      let ta = type_of_expr env a in
      let tb = type_of_expr env b in
      if not (compatible ta tb) then
        err e.eloc "operands of %s have different types (%s vs %s)"
          (Pretty.binop_str op) (Ast.typ_to_string ta) (Ast.typ_to_string tb);
      match op with
      | Add -> if ta = Tstring then Tstring else Tint
      | Sub | Mul | Div | Mod -> Tint
      | Eq | Neq | Lt | Le | Gt | Ge -> Tbool
      | And | Or ->
          if not (compatible ta Tbool) then err e.eloc "&&/|| need bool operands";
          Tbool)
  | Unop (Neg, a) ->
      let t = type_of_expr env a in
      if not (compatible t Tint) then err e.eloc "unary minus needs int";
      Tint
  | Unop (Not, a) ->
      let t = type_of_expr env a in
      if not (compatible t Tbool) then err e.eloc "! needs bool";
      Tbool
  | Call c -> (
      match types_of_call env e.eloc c with
      | [] -> Tunit
      | [ t ] -> t
      | ts -> err e.eloc "multi-value call (%d results) used as single value" (List.length ts))
  | MakeChan (t, cap) ->
      (match cap with
      | Some c ->
          let tc = type_of_expr env c in
          if not (compatible tc Tint) then err e.eloc "channel capacity must be int"
      | None -> ());
      Tchan t
  | Recv ch -> (
      match type_of_expr env ch with
      | Tchan t -> t
      | t -> err e.eloc "receive from non-channel (%s)" (Ast.typ_to_string t))
  | Field (b, f) -> (
      match type_of_expr env b with
      | Tstruct name -> (
          match Hashtbl.find_opt env.structs name with
          | None -> err e.eloc "unknown struct type %s" name
          | Some fields -> (
              match List.assoc_opt f fields with
              | Some t -> t
              | None -> err e.eloc "struct %s has no field %s" name f))
      | Tany -> Tany
      | t -> err e.eloc "field access on non-struct (%s)" (Ast.typ_to_string t))
  | StructLit (name, fields) -> (
      match Hashtbl.find_opt env.structs name with
      | None -> err e.eloc "unknown struct type %s" name
      | Some decl_fields ->
          List.iter
            (fun (f, v) ->
              match List.assoc_opt f decl_fields with
              | None -> err e.eloc "struct %s has no field %s" name f
              | Some ft ->
                  let vt = type_of_expr env v in
                  if not (compatible ft vt) then
                    err v.eloc "field %s expects %s, got %s" f
                      (Ast.typ_to_string ft) (Ast.typ_to_string vt))
            fields;
          Tstruct name)
  | FuncLit (params, rets, body) ->
      let inner = clone_env env in
      List.iter (fun (p : Ast.param) -> set_var inner p.pname p.ptyp) params;
      check_block { inner with results = rets } body;
      Tfunc (List.map (fun (p : Ast.param) -> p.ptyp) params, rets)
  | Len e' -> (
      match type_of_expr env e' with
      | Tchan _ | Tstring -> Tint
      | t -> err e.eloc "len() of %s" (Ast.typ_to_string t))

and types_of_call env loc (c : Ast.call) : Ast.typ list =
  let check_args formal actual =
    if List.length formal <> List.length actual then
      err loc "call expects %d arguments, got %d" (List.length formal)
        (List.length actual);
    List.iter2
      (fun ft (a : Ast.expr) ->
        let at = type_of_expr env a in
        if not (compatible ft at) then
          err a.eloc "argument expects %s, got %s" (Ast.typ_to_string ft)
            (Ast.typ_to_string at))
      formal actual
  in
  match c.callee with
  | Fname "println" | Fname "print" ->
      List.iter (fun a -> ignore (type_of_expr env a)) c.args;
      []
  | Fname "sleep" ->
      (* sleep(n): n scheduler steps; models time.Sleep *)
      check_args [ Tint ] c.args;
      []
  | Fname "errorf" ->
      (* errorf(msg): builds an error value; models fmt.Errorf *)
      check_args [ Tstring ] c.args;
      [ Terror ]
  | Fname "background" ->
      (* background(): a never-cancelled context; models context.Background *)
      check_args [] c.args;
      [ Tcontext ]
  | Fname "cancel" ->
      (* cancel(ctx): cancels a context; models calling its CancelFunc *)
      check_args [ Tcontext ] c.args;
      []
  | Fname f -> (
      match lookup_func env loc f with
      | Some (formals, rets) ->
          check_args formals c.args;
          rets
      | None -> [])
  | Fmethod (recv, m) -> (
      let rt = type_of_expr env recv in
      match method_sig rt m with
      | Some (formals, rets) ->
          (* testing.T printf-style methods are variadic in real Go; accept
             any argument count and just type-check each argument. *)
          if rt = Ttesting then
            List.iter (fun a -> ignore (type_of_expr env a)) c.args
          else check_args formals c.args;
          rets
      | None -> (
          match rt with
          | Tstruct _ | Tany ->
              (* user structs have no methods in MiniGo *)
              err loc "type %s has no method %s" (Ast.typ_to_string rt) m
          | _ -> err loc "type %s has no method %s" (Ast.typ_to_string rt) m))
  | Fexpr e -> (
      match type_of_expr env e with
      | Tfunc (formals, rets) ->
          check_args formals c.args;
          rets
      | t -> err loc "calling non-function value of type %s" (Ast.typ_to_string t))

and check_block env (b : Ast.block) : unit =
  let env = clone_env env in
  List.iter (check_stmt env) b

and bind_results env loc names (ts : Ast.typ list) =
  if List.length names <> List.length ts then
    err loc "assignment mismatch: %d variables but %d values" (List.length names)
      (List.length ts);
  List.iter2
    (fun n t -> if n <> "_" then set_var env n t)
    names ts

and check_stmt env (s : Ast.stmt) : unit =
  match s.s with
  | Decl (x, t, init) ->
      let ty =
        match (t, init) with
        | Some t, Some e ->
            let te = type_of_expr env e in
            if not (compatible t te) then
              err s.sloc "var %s declared %s but initialised with %s" x
                (Ast.typ_to_string t) (Ast.typ_to_string te);
            t
        | Some t, None -> t
        | None, Some e -> type_of_expr env e
        | None, None -> err s.sloc "var %s needs a type or initialiser" x
      in
      set_var env x ty
  | Define (names, e) -> (
      match (names, e.e) with
      | [ x; ok ], Recv ch -> (
          (* x, ok := <-ch *)
          match type_of_expr env ch with
          | Tchan t ->
              if x <> "_" then set_var env x t;
              if ok <> "_" then set_var env ok Tbool
          | t -> err s.sloc "receive from non-channel %s" (Ast.typ_to_string t))
      | _, Call c -> bind_results env s.sloc names (types_of_call env s.sloc c)
      | [ x ], _ ->
          let t = type_of_expr env e in
          if x <> "_" then set_var env x t
      | _, _ -> err s.sloc "multi-value define requires a call or channel receive")
  | Assign (lv, e) -> (
      let te = type_of_expr env e in
      match lv with
      | Lid "_" -> ()
      | Lid x ->
          let tx = lookup_var env s.sloc x in
          if not (compatible tx te) then
            err s.sloc "cannot assign %s to %s (%s)" (Ast.typ_to_string te) x
              (Ast.typ_to_string tx)
      | Lfield (b, f) ->
          let tf = type_of_expr env (Ast.mk_expr ~loc:s.sloc (Field (b, f))) in
          if not (compatible tf te) then
            err s.sloc "cannot assign %s to field %s (%s)" (Ast.typ_to_string te)
              f (Ast.typ_to_string tf))
  | ExprStmt e -> (
      match e.e with
      | Call c -> ignore (types_of_call env e.eloc c)
      | Recv _ -> ignore (type_of_expr env e)
      | _ -> err s.sloc "expression statement must be a call or receive")
  | Send (ch, v) -> (
      match type_of_expr env ch with
      | Tchan t ->
          let tv = type_of_expr env v in
          if not (compatible t tv) then
            err s.sloc "sending %s on chan %s" (Ast.typ_to_string tv)
              (Ast.typ_to_string t)
      | t -> err s.sloc "send on non-channel %s" (Ast.typ_to_string t))
  | CloseStmt ch -> (
      match type_of_expr env ch with
      | Tchan _ -> ()
      | t -> err s.sloc "close of non-channel %s" (Ast.typ_to_string t))
  | Go c -> ignore (types_of_call env s.sloc c)
  | GoFuncLit (params, body, args) ->
      if List.length params <> List.length args then
        err s.sloc "goroutine literal expects %d args, got %d" (List.length params)
          (List.length args);
      List.iter2
        (fun (p : Ast.param) a ->
          let ta = type_of_expr env a in
          if not (compatible p.ptyp ta) then
            err s.sloc "goroutine arg %s expects %s, got %s" p.pname
              (Ast.typ_to_string p.ptyp) (Ast.typ_to_string ta))
        params args;
      let inner = clone_env env in
      List.iter (fun (p : Ast.param) -> set_var inner p.pname p.ptyp) params;
      check_block { inner with results = [] } body
  | If (cond, then_b, else_b) ->
      let tc = type_of_expr env cond in
      if not (compatible tc Tbool) then err s.sloc "if condition must be bool";
      check_block env then_b;
      Option.iter (check_block env) else_b
  | For (kind, body) -> (
      let env' = clone_env env in
      (match kind with
      | ForEver -> ()
      | ForCond c ->
          if not (compatible (type_of_expr env' c) Tbool) then
            err s.sloc "for condition must be bool"
      | ForClassic (init, cond, post) ->
          Option.iter (check_stmt env') init;
          Option.iter
            (fun c ->
              if not (compatible (type_of_expr env' c) Tbool) then
                err s.sloc "for condition must be bool")
            cond;
          Option.iter (check_stmt env') post
      | ForRangeInt (x, e) -> (
          match type_of_expr env' e with
          | Tint -> set_var env' x Tint
          | Tchan t -> set_var env' x t (* drain loop *)
          | t -> err s.sloc "cannot range over %s" (Ast.typ_to_string t))
      | ForRangeChan (bind, e) -> (
          match type_of_expr env' e with
          | Tchan t -> Option.iter (fun x -> set_var env' x t) bind
          | t -> err s.sloc "range requires a channel, got %s" (Ast.typ_to_string t)));
      check_block env' body)
  | Select (cases, dflt) ->
      List.iter
        (fun case ->
          match case with
          | Ast.CaseRecv (bind, ok, ch, body) -> (
              match type_of_expr env ch with
              | Tchan t ->
                  let env' = clone_env env in
                  (match bind with
                  | Some x when x <> "_" -> set_var env' x t
                  | _ -> ());
                  if ok then set_var env' "ok" Tbool;
                  check_block env' body
              | t -> err s.sloc "select receive on non-channel %s" (Ast.typ_to_string t))
          | Ast.CaseSend (ch, v, body) -> (
              match type_of_expr env ch with
              | Tchan t ->
                  let tv = type_of_expr env v in
                  if not (compatible t tv) then
                    err s.sloc "select send of %s on chan %s" (Ast.typ_to_string tv)
                      (Ast.typ_to_string t);
                  check_block env body
              | t -> err s.sloc "select send on non-channel %s" (Ast.typ_to_string t)))
        cases;
      Option.iter (check_block env) dflt
  | Return es ->
      if List.length es <> List.length env.results then
        err s.sloc "return has %d values, function returns %d" (List.length es)
          (List.length env.results);
      List.iter2
        (fun (e : Ast.expr) rt ->
          let te = type_of_expr env e in
          if not (compatible rt te) then
            err e.eloc "return value expects %s, got %s" (Ast.typ_to_string rt)
              (Ast.typ_to_string te))
        es env.results
  | DeferStmt d -> (
      match d with
      | DeferCall c -> ignore (types_of_call env s.sloc c)
      | DeferSend (ch, v) -> check_stmt env (Ast.mk_stmt ~loc:s.sloc (Send (ch, v)))
      | DeferClose ch -> check_stmt env (Ast.mk_stmt ~loc:s.sloc (CloseStmt ch))
      | DeferFuncLit body -> check_block { env with results = [] } body)
  | Break | Continue -> ()
  | Panic e -> ignore (type_of_expr env e)
  | BlockStmt b -> check_block env b
  | IncDec (lv, _) -> (
      match lv with
      | Lid x ->
          if not (compatible (lookup_var env s.sloc x) Tint) then
            err s.sloc "++/-- on non-int %s" x
      | Lfield (b, f) ->
          let t = type_of_expr env (Ast.mk_expr ~loc:s.sloc (Field (b, f))) in
          if not (compatible t Tint) then err s.sloc "++/-- on non-int field %s" f)

(* ---------------------------------------------------------------- api *)

(* Rewrite `for x := range e` into ForRangeChan when e is a channel. *)
let rec normalise_block env (b : Ast.block) : Ast.block =
  let env = clone_env env in
  List.map (normalise_stmt env) b

and normalise_stmt env (s : Ast.stmt) : Ast.stmt =
  (* Track bindings loosely while rewriting; full checking happens after. *)
  let bind x t = if x <> "_" then set_var env x t in
  let try_type e = try Some (type_of_expr env e) with Type_error _ -> None in
  let desc =
    match s.s with
    | For (ForRangeInt (x, e), body) -> (
        match try_type e with
        | Some (Tchan _) ->
            let env' = clone_env env in
            (match try_type e with
            | Some (Tchan t) -> set_var env' x t
            | _ -> ());
            Ast.For (ForRangeChan (Some x, e), normalise_block env' body)
        | _ ->
            let env' = clone_env env in
            set_var env' x Tint;
            Ast.For (ForRangeInt (x, e), normalise_block env' body))
    | For (kind, body) ->
        let env' = clone_env env in
        (match kind with
        | ForClassic (Some init, _, _) -> (
            match init.s with
            | Define ([ x ], e) ->
                Option.iter (bind_via env' x) (try_type_in env' e)
            | _ -> ())
        | _ -> ());
        Ast.For (kind, normalise_block env' body)
    | If (c, b1, b2) ->
        Ast.If (c, normalise_block env b1, Option.map (normalise_block env) b2)
    | BlockStmt b -> Ast.BlockStmt (normalise_block env b)
    | GoFuncLit (params, body, args) ->
        let env' = clone_env env in
        List.iter (fun (p : Ast.param) -> set_var env' p.pname p.ptyp) params;
        Ast.GoFuncLit (params, normalise_block env' body, args)
    | Select (cases, dflt) ->
        let cases =
          List.map
            (fun case ->
              match case with
              | Ast.CaseRecv (bnd, ok, ch, body) ->
                  let env' = clone_env env in
                  (match (bnd, try_type ch) with
                  | Some x, Some (Tchan t) -> set_var env' x t
                  | _ -> ());
                  if ok then set_var env' "ok" Tbool;
                  Ast.CaseRecv (bnd, ok, ch, normalise_block env' body)
              | Ast.CaseSend (ch, v, body) ->
                  Ast.CaseSend (ch, v, normalise_block env body))
            cases
        in
        Ast.Select (cases, Option.map (normalise_block env) dflt)
    | DeferStmt (DeferFuncLit b) -> Ast.DeferStmt (DeferFuncLit (normalise_block env b))
    | other ->
        (* record bindings so later statements see them *)
        (match other with
        | Decl (x, Some t, _) -> bind x t
        | Decl (x, None, Some e) -> Option.iter (bind x) (try_type e)
        | Define ([ x; ok ], { e = Recv ch; _ }) ->
            (match try_type ch with
            | Some (Tchan t) -> bind x t
            | _ -> ());
            bind ok Tbool
        | Define (xs, { e = Call c; _ }) -> (
            let tys = try Some (types_of_call env s.sloc c) with _ -> None in
            match tys with
            | Some ts when List.length ts = List.length xs -> List.iter2 bind xs ts
            | _ -> ())
        | Define ([ x ], e) -> Option.iter (bind x) (try_type e)
        | _ -> ());
        other
  in
  { s with s = desc }

and bind_via env x t = if x <> "_" then set_var env x t
and try_type_in env e = try Some (type_of_expr env e) with Type_error _ -> None

(* One declaration's signature — the only part of a file other files'
   typing (and lowering) can depend on.  A file's signature list is a
   tiny, content-keyed artifact: the engine caches it per file so a
   warm run can compute the program fingerprint, the typing env, and
   the lowering signature table without parsing unchanged files. *)
type sig_item =
  [ `F of string * Ast.typ list * Ast.typ list
  | `S of string * (string * Ast.typ) list ]

let file_signatures (f : Ast.file) : sig_item list =
  List.map
    (fun d ->
      match d with
      | Ast.Dfunc fd ->
          `F
            ( fd.Ast.fname,
              List.map (fun (p : Ast.param) -> p.ptyp) fd.Ast.params,
              fd.Ast.results )
      | Ast.Dstruct sd -> `S (sd.Ast.struct_name, sd.Ast.fields))
    f.Ast.decls

let env_of_signatures (sigs : sig_item list) : env =
  let env =
    {
      vars = ref StrMap.empty;
      funcs = Hashtbl.create 16;
      structs = Hashtbl.create 16;
      results = [];
    }
  in
  List.iter
    (function
      | `F (name, ptys, results) -> Hashtbl.replace env.funcs name (ptys, results)
      | `S (name, fields) -> Hashtbl.replace env.structs name fields)
    sigs;
  env

let build_env (prog : Ast.program) : env =
  env_of_signatures (List.concat_map file_signatures prog)

(* Check a whole program; returns the normalised program. *)
let check_program (prog : Ast.program) : Ast.program =
  let env = build_env prog in
  let prog =
    List.map
      (fun (file : Ast.file) ->
        let decls =
          List.map
            (fun d ->
              match d with
              | Ast.Dfunc fd ->
                  let fenv = clone_env env in
                  List.iter
                    (fun (p : Ast.param) -> set_var fenv p.pname p.ptyp)
                    fd.params;
                  Ast.Dfunc { fd with body = normalise_block fenv fd.body }
              | Ast.Dstruct _ -> d)
            file.decls
        in
        { file with decls })
      prog
  in
  let env = build_env prog in
  List.iter
    (fun (file : Ast.file) ->
      List.iter
        (fun d ->
          match d with
          | Ast.Dfunc fd ->
              let fenv = clone_env env in
              List.iter
                (fun (p : Ast.param) -> set_var fenv p.pname p.ptyp)
                fd.params;
              check_block { fenv with results = fd.results } fd.body
          | Ast.Dstruct _ -> ())
        file.decls)
    prog;
  prog

(* Per-file frontend entry points.

   [build_env] reads only declaration signatures and normalisation
   rewrites only function bodies, so normalising-then-checking one file
   against the whole-program signature env is exactly what
   [check_program] does for that file: the env it rebuilds between its
   two passes is identical because signatures are untouched.
   [env.funcs] and [env.structs] are read-only during checking
   ([clone_env] copies only [vars]), so one env is safely shared by
   parallel per-file tasks. *)

let check_file (env : env) (file : Ast.file) : Ast.file =
  let per_func fd k =
    let fenv = clone_env env in
    List.iter
      (fun (p : Ast.param) -> set_var fenv p.pname p.ptyp)
      fd.Ast.params;
    k fenv
  in
  let decls =
    List.map
      (fun d ->
        match d with
        | Ast.Dfunc fd ->
            per_func fd (fun fenv ->
                Ast.Dfunc { fd with body = normalise_block fenv fd.body })
        | Ast.Dstruct _ -> d)
      file.decls
  in
  let file = { file with decls } in
  List.iter
    (fun d ->
      match d with
      | Ast.Dfunc fd ->
          per_func fd (fun fenv ->
              check_block { fenv with results = fd.results } fd.body)
      | Ast.Dstruct _ -> ())
    file.decls;
  file

(* Digest of every declaration signature in program order: the part of
   the program a file's typing can depend on besides its own text.
   Body-only edits leave it unchanged, so sibling files keep their
   per-file typed-AST cache entries. *)
let signatures_fingerprint (sigs : sig_item list) : string =
  Digest.to_hex (Digest.string (Marshal.to_string sigs [ Marshal.No_sharing ]))

let signature_fingerprint (prog : Ast.program) : string =
  signatures_fingerprint (List.concat_map file_signatures prog)
