module A = Minigo.Ast
module Alias = Goanalysis.Alias

(* GFix (paper §4): automated patching of BMOC bugs detected by GCatch.

   The dispatcher classifies each input bug and attempts the strategies in
   order of patch simplicity (§5.1): Strategy-I (increase the channel
   buffer from zero to one), then Strategy-II (defer the missed unblocking
   operation), then Strategy-III (add a stop channel and select on it).

   The problem scope matches the paper's (§4.1): two goroutines, one
   *local* channel; Go-B, the blocked goroutine, must be a child goroutine
   created by Go-A so its full behaviour is statically visible. *)

type strategy = S1_increase_buffer | S2_defer_op | S3_add_stop

let strategy_str = function
  | S1_increase_buffer -> "Strategy-I (increase buffer size)"
  | S2_defer_op -> "Strategy-II (defer channel operation)"
  | S3_add_stop -> "Strategy-III (add stop channel)"

type fix = {
  strategy : strategy;
  patched : A.program;
  changed_lines : int;
  description : string;
}

type outcome = Fixed of fix | Not_fixed of string

(* Information recovered about the buggy channel and its goroutines. *)
type site = {
  parent_fn : A.func_decl;
  chan_var : string;              (* channel variable name in the parent *)
  decl_loc : Minigo.Loc.t;        (* statement declaring the channel *)
  elem_type : A.typ;
  is_unbuffered : bool;
  child_body : A.block;           (* body of the goroutine literal *)
  child_chan_var : string;        (* channel name inside the child *)
  o2 : Report.blocked_op;
}

(* ---------------------------------------------------------- recovery *)

(* Find the statement in [fd] declaring a channel at [loc]; returns
   (variable, declaration loc, element type, unbuffered?). *)
let find_chan_decl (fd : A.func_decl) (loc : Minigo.Loc.t) =
  A.fold_stmts
    (fun acc s ->
      match acc with
      | Some _ -> acc
      | None -> (
          let mk x (t, cap) = Some (x, s.A.sloc, t, cap) in
          match s.A.s with
          | A.Define ([ x ], { e = A.MakeChan (t, cap); eloc })
            when Patch.same_line eloc loc ->
              mk x (t, cap)
          | A.Decl (x, _, Some { e = A.MakeChan (t, cap); eloc })
            when Patch.same_line eloc loc ->
              mk x (t, cap)
          | _ -> None))
    None fd.body
  |> Option.map (fun (x, sloc, t, cap) ->
         let unbuffered =
           match cap with None -> true | Some { A.e = A.Int 0; _ } -> true | _ -> false
         in
         (x, sloc, t, unbuffered))

(* The parameter a goroutine binds the channel to when [chan_var] is
   passed as an argument; [None] when the goroutine captures it by name
   or the argument count does not match the parameters. *)
let bound_param (params : A.param list) (args : A.expr list)
    (chan_var : string) : string option =
  if List.compare_lengths params args <> 0 then None
  else
    List.find_map
      (fun ((p : A.param), (a : A.expr)) ->
        match a.A.e with
        | A.Ident x when x = chan_var -> Some p.pname
        | _ -> None)
      (List.combine params args)

(* Find the goroutine in [fd] whose body contains the blocked operation;
   returns the body and the channel's name inside it.  Handles both
   goroutine literals (Figure 1) and named-function goroutines like
   Figure 3's `go Start(stop)`. *)
let find_child (prog : A.program) (fd : A.func_decl) (chan_var : string)
    (o2 : Report.blocked_op) : (A.block * string) option =
  let loc = o2.bo_loc in
  A.fold_stmts
    (fun acc s ->
      match acc with
      | Some _ -> acc
      | None -> (
          match s.A.s with
          | A.GoFuncLit (params, body, args) ->
              if
                A.fold_stmts
                  (fun found st -> found || Patch.same_line st.A.sloc loc)
                  false body
              then
                Some
                  ( body,
                    Option.value (bound_param params args chan_var)
                      ~default:chan_var )
              else None
          | A.Go { callee = A.Fname g; args } when g = o2.bo_func -> (
              match A.find_func prog g with
              | Some child_fd ->
                  Some
                    ( child_fd.body,
                      Option.value
                        (bound_param child_fd.params args chan_var)
                        ~default:chan_var )
              | None -> None)
          | _ -> None))
    None fd.body

(* How many goroutines (incl. the parent) access the channel? *)
let goroutines_accessing (fd : A.func_decl) (chan_var : string) : int =
  let child_count = ref 0 in
  A.iter_stmts
    (fun s ->
      match s.A.s with
      | A.GoFuncLit (params, body, args) ->
          let name =
            Option.value (bound_param params args chan_var) ~default:chan_var
          in
          if Patch.block_uses name body then incr child_count
      | A.Go c ->
          if List.exists (Patch.expr_uses chan_var) c.args then incr child_count
      | _ -> ())
    fd.body;
  1 + !child_count

let recover (prog : A.program) (bug : Report.bmoc_bug) : (site, string) result =
  match bug.blocked with
  | [ o2 ] -> (
      match bug.chan_loc with
      | None -> Error "channel has no static creation site"
      | Some cloc -> (
          match Patch.func_containing prog cloc with
          | None -> Error "cannot locate the function declaring the channel"
          | Some parent_fn -> (
              match find_chan_decl parent_fn cloc with
              | None -> Error "channel is not declared by a simple statement"
              | Some (chan_var, decl_loc, elem_type, is_unbuffered) -> (
                  (* Go-B must be a child goroutine (§4.1) *)
                  match find_child prog parent_fn chan_var o2 with
                  | None -> Error "the blocking goroutine is the parent"
                  | Some (child_body, child_chan_var) ->
                      if goroutines_accessing parent_fn chan_var > 2 then
                        Error "more than two goroutines access the channel"
                      else
                        Ok
                          {
                            parent_fn;
                            chan_var;
                            decl_loc;
                            elem_type;
                            is_unbuffered;
                            child_body;
                            child_chan_var;
                            o2;
                          }))))
  | [] -> Error "no blocking operation reported"
  | _ -> Error "bug involves more than two goroutines"

(* ------------------------------------------------------- strategies *)

(* Side effects after o2 in the child would escape Go-B (§4.2, step 4). *)
let side_effect_free_after (st : site) : bool =
  match Patch.stmts_after st.o2.bo_loc st.child_body with
  | None -> true (* o2 is the last statement of a nested block *)
  | Some rest -> List.for_all Patch.is_pure_exit rest

(* Strategy-I: single-sending bugs — Go-B performs exactly one send on an
   unbuffered channel; bump the buffer to one. *)
let try_s1 (prog : A.program) (st : site) : (Patch.rewrite * string) option =
  if st.o2.bo_kind <> Report.Ksend then None
  else if not st.is_unbuffered then None
  else
    let ops = Patch.ops_on_chan st.child_chan_var st.child_body in
    let sends = List.filter (function Patch.Csend _ -> true | _ -> false) ops in
    if List.length ops <> 1 || List.length sends <> 1 then None
    else if Patch.in_loop_in_block st.o2.bo_loc st.child_body ~inside:false then None
    else if not (side_effect_free_after st) then None
    else
      let patched =
        Patch.rewrite_func prog st.parent_fn (fun s ->
            if Minigo.Loc.equal s.A.sloc st.decl_loc then
              [
                {
                  s with
                  A.s =
                    (match s.A.s with
                    | A.Define (xs, ({ e = A.MakeChan (t, _); _ } as e)) ->
                        A.Define
                          (xs, { e with A.e = A.MakeChan (t, Some (A.mk_expr (A.Int 1))) })
                    | A.Decl (x, ty, Some ({ e = A.MakeChan (t, _); _ } as e)) ->
                        A.Decl
                          ( x,
                            ty,
                            Some
                              { e with A.e = A.MakeChan (t, Some (A.mk_expr (A.Int 1))) }
                          )
                    | other -> other);
                };
              ]
            else [ s ])
      in
      Some
        ( patched,
          Printf.sprintf "increase buffer of %s from 0 to 1 in %s" st.chan_var
            st.parent_fn.fname )

(* Parent-side operations on the channel (potential o1s). *)
let parent_ops (st : site) : Patch.chan_op_ast list =
  (* exclude statements inside goroutine literals: ops_on_chan descends
     into them, so filter by whether the op's loc is in the child body *)
  let in_child loc =
    A.fold_stmts
      (fun acc s -> acc || Minigo.Loc.equal s.A.sloc loc)
      false st.child_body
  in
  List.filter
    (fun op ->
      let loc =
        match op with
        | Patch.Csend s | Patch.Crecv s | Patch.Cclose s | Patch.Cselect_arm s ->
            s.A.sloc
      in
      not (in_child loc))
    (Patch.ops_on_chan st.chan_var st.parent_fn.body)

(* Can the parent exit before performing o1?  True when a Fatal-family
   call, panic, or return appears lexically before the last o1. *)
let parent_can_miss_o1 (st : site) (o1_locs : Minigo.Loc.t list) : bool =
  let last_o1_line =
    List.fold_left (fun m l -> max m (Minigo.Loc.line l)) 0 o1_locs
  in
  A.fold_stmts
    (fun acc s ->
      acc
      ||
      (Minigo.Loc.line s.A.sloc < last_o1_line
      &&
      match s.A.s with
      | A.Panic _ -> true
      | A.Return _ -> true
      | A.ExprStmt { e = A.Call { callee = A.Fmethod (_, m); _ }; _ } ->
          List.mem m [ "Fatal"; "Fatalf"; "FailNow" ]
      | _ -> false))
    false st.parent_fn.body

(* Strategy-II: missing-interaction bugs — defer the parent's o1 so it
   always runs (Figure 3). *)
let try_s2 (prog : A.program) (st : site) : (Patch.rewrite * string) option =
  let ops = Patch.ops_on_chan st.child_chan_var st.child_body in
  if List.length ops <> 1 then None
  else if not (side_effect_free_after st) then None
  else
    let p_ops = parent_ops st in
    let sends =
      List.filter_map
        (function
          | Patch.Csend ({ A.s = A.Send (_, v); _ } as s) -> Some (s, v)
          | _ -> None)
        p_ops
    in
    let closes =
      List.filter_map (function Patch.Cclose s -> Some s | _ -> None) p_ops
    in
    let const_expr (e : A.expr) =
      match e.A.e with
      | A.Int _ | A.Bool _ | A.Str _ | A.Nil -> true
      | A.StructLit (_, []) -> true
      | _ -> false
    in
    let same_const =
      match sends with
      | (_, v0) :: _ ->
          List.for_all
            (fun (_, v) -> Minigo.Pretty.expr_str v = Minigo.Pretty.expr_str v0)
            sends
          && const_expr v0
      | [] -> false
    in
    let o1_locs =
      List.map (fun (s, _) -> s.A.sloc) sends
      @ List.map (fun (s : A.stmt) -> s.A.sloc) closes
    in
    if o1_locs = [] then None
    else if not (parent_can_miss_o1 st o1_locs) then None
    else
      let defer_stmt =
        if closes <> [] && sends = [] then
          A.mk_stmt (A.DeferStmt (A.DeferClose (A.mk_expr (A.Ident st.chan_var))))
        else if same_const then
          let v = snd (List.hd sends) in
          A.mk_stmt
            (A.DeferStmt (A.DeferSend (A.mk_expr (A.Ident st.chan_var), v)))
        else A.mk_stmt (A.Return []) (* sentinel: rejected below *)
      in
      (match defer_stmt.A.s with
      | A.Return _ -> None
      | _ ->
          let patched =
            Patch.rewrite_func prog st.parent_fn (fun s ->
                if Minigo.Loc.equal s.A.sloc st.decl_loc then [ s; defer_stmt ]
                else if List.exists (Minigo.Loc.equal s.A.sloc) o1_locs then []
                else [ s ])
          in
          Some
            ( patched,
              Printf.sprintf "defer the %s on %s in %s"
                (if closes <> [] && sends = [] then "close" else "send")
                st.chan_var st.parent_fn.fname ))

(* Strategy-III: multiple-operations bugs — add a stop channel closed via
   defer in the parent; the child selects between its operation on c and
   receiving from stop (Figure 4). *)
let try_s3 (prog : A.program) (st : site) : (Patch.rewrite * string) option =
  (* the child may operate on c many times (loops allowed); instructions
     after o2 may touch c but nothing else (§4.4) *)
  let stop = st.chan_var ^ "Stop" in
  let benign_after =
    match Patch.stmts_after st.o2.bo_loc st.child_body with
    | None -> true
    | Some rest ->
        List.for_all
          (fun (s : A.stmt) ->
            Patch.is_pure_exit s
            ||
            (* operations on c itself are allowed after o2 in §4.4 *)
            match s.A.s with
            | A.Send ({ e = A.Ident x; _ }, _) | A.CloseStmt { e = A.Ident x; _ }
              ->
                x = st.child_chan_var
            | A.ExprStmt { e = A.Recv { e = A.Ident x; _ }; _ } ->
                x = st.child_chan_var
            | _ -> false)
          rest
  in
  if not benign_after then None
  else
  match st.o2.bo_kind with
  | Report.Ksend ->
      (* replace each `c <- v` in the child with a select on c/stop *)
      let replaced = ref 0 in
      let patched =
        Patch.rewrite_func prog st.parent_fn (fun s ->
            if Minigo.Loc.equal s.A.sloc st.decl_loc then
              [
                s;
                A.mk_stmt
                  (A.Define ([ stop ], A.mk_expr (A.MakeChan (A.Tbool, None))));
                A.mk_stmt (A.DeferStmt (A.DeferClose (A.mk_expr (A.Ident stop))));
              ]
            else
              match s.A.s with
              | A.Send (({ e = A.Ident x; _ } as ch), v)
                when x = st.child_chan_var
                     && A.fold_stmts
                          (fun acc c -> acc || Minigo.Loc.equal c.A.sloc s.A.sloc)
                          false st.child_body ->
                  incr replaced;
                  [
                    A.mk_stmt ~loc:s.A.sloc
                      (A.Select
                         ( [
                             A.CaseSend (ch, v, []);
                             A.CaseRecv
                               ( None,
                                 false,
                                 A.mk_expr (A.Ident stop),
                                 [ A.mk_stmt (A.Return []) ] );
                           ],
                           None ));
                  ]
              | _ -> [ s ])
      in
      if !replaced = 0 then None
      else
        Some
          ( patched,
            Printf.sprintf
              "add stop channel %s; child selects between %s and stop" stop
              st.chan_var )
  | _ -> None

(* --------------------------------------------------------- dispatcher *)

let dispatch (prog : A.program) (bug : Report.bmoc_bug) : outcome =
  match recover prog bug with
  | Error reason -> Not_fixed reason
  | Ok st -> (
      (* every strategy rewrites only [st.parent_fn], so its diff is the
         whole program's (see [Patch.line_diff]) *)
      let finish strategy ((patched, patched_fn), description) =
        Fixed
          {
            strategy;
            patched;
            changed_lines =
              Patch.changed_lines
                (Minigo.Pretty.func_str st.parent_fn)
                (Minigo.Pretty.func_str patched_fn);
            description;
          }
      in
      match try_s1 prog st with
      | Some r -> finish S1_increase_buffer r
      | None -> (
          match try_s2 prog st with
          | Some r -> finish S2_defer_op r
          | None -> (
              match try_s3 prog st with
              | Some r -> finish S3_add_stop r
              | None ->
                  Not_fixed
                    (if not (side_effect_free_after st) then
                       "side effects after the blocking operation"
                     else "no applicable strategy"))))

(* Fix every fixable bug of an analysis; returns per-bug outcomes. *)
let fix_all (prog : A.program) (bugs : Report.bmoc_bug list) :
    (Report.bmoc_bug * outcome) list =
  let module M = Goobs.Metrics in
  List.map
    (fun bug ->
      Goobs.Trace.with_span ~name:"gfix.attempt" @@ fun () ->
      let o =
        if bug.Report.kind = Report.Chan_only then dispatch prog bug
        else Not_fixed "bug involves a mutex; out of GFix's scope"
      in
      M.incr (M.counter M.default "gfix.attempts");
      (match o with
      | Fixed f ->
          M.incr (M.counter M.default "gfix.fixed");
          Goobs.Trace.set_args [ ("strategy", strategy_str f.strategy) ]
      | Not_fixed reason ->
          M.incr (M.counter M.default "gfix.not_fixed");
          Goobs.Trace.set_args [ ("not_fixed", reason) ]);
      (bug, o))
    bugs

(* Apply every fix that lands, one per detection.  The outcomes of one
   [fix_all] round were all patched against that round's input, so only
   one of them can be applied before the program is re-detected and
   re-fixed.  Re-detection reuses the already type-checked AST: only
   lowering and BMOC detection run per round.  A fix removes the bug it
   patched, so the first round's bug count bounds the rounds. *)
let fix_to_fixpoint (prog : A.program)
    (fixes : (Report.bmoc_bug * outcome) list) : A.program =
  let first_patch outcomes =
    List.find_map
      (fun (_, o) ->
        match o with Fixed f -> Some f.patched | Not_fixed _ -> None)
      outcomes
  in
  let rec go cur outcomes rounds =
    match first_patch outcomes with
    | Some next when rounds > 0 ->
        let ir = Goir.Lower.lower_program next in
        go next (fix_all next (Bmoc.detect_full ir).Bmoc.f_bugs) (rounds - 1)
    | _ -> cur
  in
  go prog fixes (List.length fixes)
