(** Non-blocking misuse-of-channel checkers — the paper's §6 extension:
    a send ordered after a close of the same channel panics, as does a
    second close.  Both are decided with the order-variable bug
    constraint the paper sketches (O_close < O_send satisfiable). *)

type nb_kind = Send_on_closed | Double_close

val nb_kind_str : nb_kind -> string

type nb_bug = {
  nb_kind : nb_kind;
  nb_chan : Goanalysis.Alias.obj;
  nb_first : Minigo.Loc.t;   (** the close *)
  nb_second : Minigo.Loc.t;  (** the send / second close *)
  nb_func : string;          (** scope root *)
}

val nb_str : nb_bug -> string

val detect :
  ?cfg:Bmoc.config ->
  ?dis:Disentangle.t ->
  alias:Goanalysis.Alias.t ->
  cg:Goanalysis.Callgraph.t ->
  prims:Primitives.t ->
  Goir.Ir.program ->
  nb_bug list
(** Check every closed channel on the caller's alias facts, call graph,
    primitive map and disentangling (the engine pass passes its artifact
    record's; without [dis] it is built here). *)
