(* The machine's speed at the moment, from a fixed computation.

   The benchmark runs on a few cores of a shared host whose other tenants
   slow it for minutes at a time: over ten corpus runs one after another
   on a two-vCPU x86-64 VM, the median pass took from 495 to 646 ms.  The
   slowdown is in the memory system rather than in CPU time handed out: a
   tight integer loop barely moves (quartile spread 0.06 over five
   minutes, against 0.25 for corpus passes beside it), while
   allocation-heavy OCaml code slows along with the analyser, in wall and
   CPU time alike.  So a closed loop takes this probe before each
   operation and multiplies the operation's times by [nominal_s] over the
   probe's time: what the operation would have taken on a machine that
   runs the probe in [nominal_s].  Over ten minutes of corpus passes, the
   medians of twenty passes spread 0.18 as measured and 0.05-0.08 scaled.

   The probe runs in a fresh process of its own, so its time does not
   depend on the heap of whichever process asks for it, and its code is
   the benchmark's: a change to the system under test moves the scaled
   times and leaves the probe alone. *)

(* Roughly what the probe takes on that VM, so scaled times read close to
   measured ones there. *)
let nominal_s = 0.15

module IM = Map.Make (Int)

(* Persistent maps, strings, a hash table and a sort: the shapes of a
   frontend's and the analyses' tables. *)
let tables () =
  let st = Random.State.make [| 7 |] in
  let m = ref IM.empty in
  for _ = 1 to 25_000 do
    let k = Random.State.bits st in
    m := IM.add k (string_of_int k) !m
  done;
  let h = Hashtbl.create 16 in
  IM.iter (fun k v -> Hashtbl.replace h v k) !m;
  let l = List.sort compare (IM.fold (fun k _ acc -> (k * 7919) mod 1000003 :: acc) !m []) in
  List.length l + Hashtbl.length h

(* Binary trees of 2^18 nodes built and walked: minor-heap allocation and
   promotion over a working set larger than a core's L2. *)
type tree = Leaf | Node of tree * int * tree

let rec build d k =
  if d = 0 then Leaf else Node (build (d - 1) (2 * k), k, build (d - 1) ((2 * k) + 1))

let rec sum = function Leaf -> 0 | Node (l, k, r) -> sum l + k + sum r

let trees () =
  let acc = ref 0 in
  for i = 1 to 5 do
    acc := !acc + sum (build 18 i)
  done;
  !acc

let work () = ignore (Sys.opaque_identity (tables () + trees ()))

(* The probe itself, timed in this process: what `main.exe probe N`
   prints.  It runs on [domains] domains at once, each doing the whole
   computation, so a system under test that fans out over both cores is
   compared with a probe that does too: when one core stalls, a
   two-domain program waits for it at every stop-the-world collection. *)
let measure ~domains =
  let t0 = Util.now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join others;
  Util.now () -. t0

(* The probe samples of one run, in seconds, on [domains] domains. *)
type t = { domains : int; mutable samples : float list }

let create ?(domains = 1) () = { domains; samples = [] }

(* Take one sample in a fresh `main.exe probe` process; returns it. *)
let take t =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () ->
        Unix.create_process_env Sys.executable_name
          [| Sys.executable_name; "probe"; string_of_int t.domains |]
          (Util.child_env ()) Unix.stdin w Unix.stderr)
  in
  let ic = Unix.in_channel_of_descr r in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_line ic) in
  let st = Util.waitpid_noeintr pid in
  match Option.bind line float_of_string_opt with
  | Some s when Util.exit_code st = 0 ->
      t.samples <- s :: t.samples;
      s
  | _ -> failwith "machine probe printed no time"

let take_n t n = for _ = 1 to n do ignore (take t) done

(* What a time measured next to the probe sample [s] is multiplied by. *)
let scale s = nominal_s /. s

(* What a run's times are multiplied by when they are not paired with a
   sample of their own (set-ups). *)
let factor samples = match samples with [] -> 1.0 | _ -> scale (Util.median samples)
