(* Tseitin gates and guarded sequential-counter cardinalities, emitted
   as clauses into one flat, reusable literal buffer.

   Both ways of building a problem share these gates: {!Expr.lit_of}
   translates a formula tree through them, and the BMOC encoder calls
   them directly on the literals of its per-combination index, with no
   tree and no intermediate lists.  A gate reads its operands from the
   top of the operand stack ([push]), pops them, and returns the
   gate's own literal; clauses are appended to the buffer in the order
   the translation produces them.

   Gate variables are *provisional*: [fresh] numbers them from
   [prov_var] up, and the owner maps them to real SAT variables when it
   hands the buffer over ([iter_clauses]).  A caller can therefore allocate
   the atoms a problem mentions while it emits the problem's clauses,
   and still give every gate variable a number above every atom, as
   building the whole formula first and translating it afterwards
   would. *)

let prov_var = 1 lsl 40
let prov_lit = Sat.lit_of_var prov_var true

type t = {
  mutable guard : int; (* literal put first in every clause; -1: none *)
  mutable lits : int array; (* the clauses' literals, back to back *)
  mutable nlits : int;
  mutable ends : int array; (* clause i is lits.(ends.(i-1)) .. ends.(i)-1 *)
  mutable nclauses : int;
  mutable stk : int array; (* operand stack *)
  mutable sp : int;
  mutable nfresh : int; (* provisional variables handed out *)
}

let create () =
  {
    guard = -1;
    lits = Array.make 256 0;
    nlits = 0;
    ends = Array.make 64 0;
    nclauses = 0;
    stk = Array.make 32 0;
    sp = 0;
    nfresh = 0;
  }

let grow a n = Array.append a (Array.make (max n (Array.length a)) 0)

let set_guard c g = c.guard <- g

(* Forget every clause and gate variable (the guard is kept). *)
let clear c =
  c.nlits <- 0;
  c.nclauses <- 0;
  c.sp <- 0;
  c.nfresh <- 0

let fresh c =
  let v = prov_var + c.nfresh in
  c.nfresh <- c.nfresh + 1;
  Sat.lit_of_var v true

let push c l =
  if c.sp = Array.length c.stk then c.stk <- grow c.stk 1;
  c.stk.(c.sp) <- l;
  c.sp <- c.sp + 1

let sp c = c.sp

(* ---- clause output ---- *)

let lit c l =
  if c.nlits = Array.length c.lits then c.lits <- grow c.lits 1;
  c.lits.(c.nlits) <- l;
  c.nlits <- c.nlits + 1

(* Open a clause: the guard goes first. *)
let open_ c = if c.guard >= 0 then lit c c.guard

let close c =
  if c.nclauses = Array.length c.ends then c.ends <- grow c.ends 1;
  c.ends.(c.nclauses) <- c.nlits;
  c.nclauses <- c.nclauses + 1

let clause1 c a =
  open_ c;
  lit c a;
  close c

let clause2 c a b =
  open_ c;
  lit c a;
  lit c b;
  close c

let clause3 c a b d =
  open_ c;
  lit c a;
  lit c b;
  lit c d;
  close c

(* clause [w?; a; b] or [w?; a; b; d], where [w] (a gate's weakening
   literal) is left out when negative *)
let wclause2 c w a b =
  if w < 0 then clause2 c a b else clause3 c w a b

let wclause3 c w a b d =
  open_ c;
  if w >= 0 then lit c w;
  lit c a;
  lit c b;
  lit c d;
  close c

let empty c =
  open_ c;
  close c

(* ---- cardinalities ---- *)

(* Sequential-counter encoding (Sinz 2005) of  sum(x_i) <= k  over the
   operands [from .. sp-1] (negated when [negate]), every clause
   weakened by [w] (a negative literal stands for no weakening).  The
   counter's variables s(i,j) — among x_0..x_i at least j+1 are true —
   are allocated row by row.  Pops the operands. *)
let at_most_w c ~w ~negate k from =
  let n = c.sp - from in
  let x i = if negate then Sat.neg c.stk.(from + i) else c.stk.(from + i) in
  let wl = if w >= 0 then Sat.neg w else -1 in
  let wclause1 a = if wl < 0 then clause1 c a else clause2 c wl a in
  if k >= n then ()
  else if k < 0 then (if wl < 0 then empty c else clause1 c wl)
  else if k = 0 then
    for i = 0 to n - 1 do
      wclause1 (Sat.neg (x i))
    done
  else begin
    let s0 = c.nfresh in
    c.nfresh <- c.nfresh + (n * k);
    let s i j = Sat.lit_of_var (prov_var + s0 + (i * k) + j) true in
    wclause2 c wl (Sat.neg (x 0)) (s 0 0);
    for i = 1 to n - 1 do
      let xi = x i in
      wclause2 c wl (Sat.neg xi) (s i 0);
      wclause2 c wl (Sat.neg (s (i - 1) 0)) (s i 0);
      for j = 1 to k - 1 do
        wclause3 c wl (Sat.neg xi) (Sat.neg (s (i - 1) (j - 1))) (s i j);
        wclause2 c wl (Sat.neg (s (i - 1) j)) (s i j)
      done;
      (* overflow: x_i with k already true among x_0..x_{i-1} *)
      wclause2 c wl (Sat.neg xi) (Sat.neg (s (i - 1) (k - 1)))
    done
  end;
  c.sp <- from

(* at least k  <=>  at most (n-k) of the negations *)
let at_least_w c ~w k from =
  let n = c.sp - from in
  if k <= 0 then c.sp <- from
  else if k > n then begin
    if w >= 0 then clause1 c (Sat.neg w) else empty c;
    c.sp <- from
  end
  else at_most_w c ~w ~negate:true (n - k) from

let assert_at_most c k from = at_most_w c ~w:(-1) ~negate:false k from
let assert_at_least c k from = at_least_w c ~w:(-1) k from

(* ---- gates ---- *)

let true_ c =
  let v = fresh c in
  clause1 c v;
  v

let false_ c = Sat.neg (true_ c)

let and_ c from =
  let v = fresh c in
  for i = from to c.sp - 1 do
    clause2 c (Sat.neg v) c.stk.(i)
  done;
  open_ c;
  lit c v;
  for i = from to c.sp - 1 do
    lit c (Sat.neg c.stk.(i))
  done;
  close c;
  c.sp <- from;
  v

let or_ c from =
  let v = fresh c in
  open_ c;
  lit c (Sat.neg v);
  for i = from to c.sp - 1 do
    lit c c.stk.(i)
  done;
  close c;
  for i = from to c.sp - 1 do
    clause2 c v (Sat.neg c.stk.(i))
  done;
  c.sp <- from;
  v

let iff c a b =
  let v = fresh c in
  clause3 c (Sat.neg v) (Sat.neg a) b;
  clause3 c (Sat.neg v) a (Sat.neg b);
  clause3 c v a b;
  clause3 c v (Sat.neg a) (Sat.neg b);
  v

(* reified for positive polarity only: v -> (sum <= k) *)
let at_most c k from =
  let v = fresh c in
  at_most_w c ~w:v ~negate:false k from;
  v

let at_least c k from =
  let v = fresh c in
  at_least_w c ~w:v k from;
  v

let exactly c k from =
  let v = fresh c in
  let n = c.sp - from in
  at_most_w c ~w:v ~negate:false k from;
  (* the operands again, for the second half *)
  c.sp <- from + n;
  at_least_w c ~w:v k from;
  v

(* ---- assertions ---- *)

let assert_lit c l = clause1 c l

(* the disjunction of the operands *)
let assert_or c from =
  open_ c;
  for i = from to c.sp - 1 do
    lit c c.stk.(i)
  done;
  close c;
  c.sp <- from

let assert_exactly c k from =
  let n = c.sp - from in
  assert_at_most c k from;
  c.sp <- from + n;
  assert_at_least c k from

(* ---- hand-over ---- *)

let n_fresh c = c.nfresh

(* [f lits off len] on each clause, in emission order, after numbering
   the provisional variables from [first_var]. *)
let iter_clauses c ~first_var f =
  let shift = Sat.lit_of_var first_var true - prov_lit in
  for i = 0 to c.nlits - 1 do
    let l = c.lits.(i) in
    if l >= prov_lit then c.lits.(i) <- l + shift
  done;
  let start = ref 0 in
  for i = 0 to c.nclauses - 1 do
    let e = c.ends.(i) in
    f c.lits !start (e - !start);
    start := e
  done
