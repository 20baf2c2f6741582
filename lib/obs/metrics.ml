(* Metrics registry: counters, gauges, and log-scale histograms.

   One registry is one namespace of named instruments.  Instruments are
   interned on first use (the name -> instrument table is guarded by a
   mutex) and updated lock-free afterwards, so pool workers can bump the
   same counter without contending on anything but the atomic itself.

   Histograms use 64 power-of-two buckets.  Bucket [i] covers the value
   range (2^(i-21), 2^(i-20)], which puts 1.0 at the top of bucket 20
   and spans roughly a microsecond to 8 e12 when values are measured in
   milliseconds — wide enough for both per-channel solve latencies and
   path-event counts.  Percentiles come from the bucket upper bound,
   except p100 which is the exact observed maximum.

   Exports: Prometheus text exposition ([to_prometheus]) and a JSON
   object ([to_json], hand-rolled like the rest of the repo — no JSON
   library in the build). *)

type counter = { c_name : string; c_v : int Atomic.t }
type gauge = { g_name : string; g_v : float Atomic.t }

let n_buckets = 64

type histogram = {
  h_name : string;
  h_counts : int Atomic.t array; (* length [n_buckets] *)
  h_sum : float Atomic.t;
  h_max : float Atomic.t;
}

type t = {
  mu : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    mu = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
  }

(* Process-wide registry: the CLI, pool, pathenum, and GFix all report
   here unless handed a private registry. *)
let default = create ()

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let intern tbl mu_t name mk =
  match Hashtbl.find_opt tbl name with
  | Some x -> x
  | None ->
      locked mu_t (fun () ->
          match Hashtbl.find_opt tbl name with
          | Some x -> x
          | None ->
              let x = mk name in
              Hashtbl.replace tbl name x;
              x)

(* Counters ------------------------------------------------------------- *)

let counter t name =
  intern t.counters t name (fun c_name -> { c_name; c_v = Atomic.make 0 })

let incr c = Atomic.incr c.c_v
let add c n = ignore (Atomic.fetch_and_add c.c_v n)
let value c = Atomic.get c.c_v

(* Gauges --------------------------------------------------------------- *)

let gauge t name =
  intern t.gauges t name (fun g_name -> { g_name; g_v = Atomic.make 0.0 })

let set_gauge g v = Atomic.set g.g_v v
let gauge_value g = Atomic.get g.g_v

(* Histograms ----------------------------------------------------------- *)

let histogram t name =
  intern t.histograms t name (fun h_name ->
      {
        h_name;
        h_counts = Array.init n_buckets (fun _ -> Atomic.make 0);
        h_sum = Atomic.make 0.0;
        h_max = Atomic.make neg_infinity;
      })

(* Bucket index for a value: 20 + ceil(log2 v), clamped to the array. *)
let bucket_index v =
  if v <= 0.0 then 0
  else begin
    let i = 20 + int_of_float (Float.ceil (Float.log2 v)) in
    if i < 0 then 0 else if i > n_buckets - 1 then n_buckets - 1 else i
  end

(* Upper bound of bucket [i]: 2^(i-20). *)
let bucket_upper i = Float.pow 2.0 (float_of_int (i - 20))

let rec atomic_update (a : float Atomic.t) f =
  let old = Atomic.get a in
  let nv = f old in
  if not (Atomic.compare_and_set a old nv) then atomic_update a f

let observe h v =
  Atomic.incr h.h_counts.(bucket_index v);
  atomic_update h.h_sum (fun s -> s +. v);
  atomic_update h.h_max (fun m -> if v > m then v else m)

let h_count h =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 h.h_counts

let h_sum h = Atomic.get h.h_sum

let h_max h =
  let m = Atomic.get h.h_max in
  if m = neg_infinity then 0.0 else m

(* Percentile estimate: the upper bound of the bucket holding the rank,
   capped at the exact maximum (so percentile 1.0 = max). *)
let percentile h p =
  let total = h_count h in
  if total = 0 then 0.0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
    let rank =
      let r = int_of_float (Float.ceil (p *. float_of_int total)) in
      if r < 1 then 1 else r
    in
    let rec walk i cum =
      if i >= n_buckets then h_max h
      else begin
        let cum = cum + Atomic.get h.h_counts.(i) in
        if cum >= rank then Float.min (bucket_upper i) (h_max h)
        else walk (i + 1) cum
      end
    in
    walk 0 0
  end

(* Listing and merging -------------------------------------------------- *)

let sorted_keys tbl =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

(* Sorted (name, value) pairs: a deterministic snapshot whatever the
   interleaving of worker updates that produced it. *)
let counters_list t =
  locked t (fun () ->
      List.map
        (fun k -> (k, value (Hashtbl.find t.counters k)))
        (sorted_keys t.counters))

let gauges_list t =
  locked t (fun () ->
      List.map
        (fun k -> (k, gauge_value (Hashtbl.find t.gauges k)))
        (sorted_keys t.gauges))

let histogram_names t = locked t (fun () -> sorted_keys t.histograms)

(* Fold [src] into [dst]: counters and histogram buckets add, gauges take
   the source value. *)
let merge_into ~dst src =
  let names = counters_list src in
  List.iter (fun (k, v) -> if v <> 0 then add (counter dst k) v) names;
  List.iter (fun (k, v) -> set_gauge (gauge dst k) v) (gauges_list src);
  List.iter
    (fun k ->
      let hs = histogram src k in
      let hd = histogram dst k in
      Array.iteri
        (fun i a ->
          let n = Atomic.get a in
          if n <> 0 then ignore (Atomic.fetch_and_add hd.h_counts.(i) n))
        hs.h_counts;
      atomic_update hd.h_sum (fun s -> s +. h_sum hs);
      let m = h_max hs in
      if h_count hs > 0 then
        atomic_update hd.h_max (fun m' -> if m > m' then m else m'))
    (histogram_names src)

let reset t =
  locked t (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_v 0) t.counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_v 0.0) t.gauges;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun a -> Atomic.set a 0) h.h_counts;
          Atomic.set h.h_sum 0.0;
          Atomic.set h.h_max neg_infinity)
        t.histograms)

(* The one bucket schema both exporters share: occupied buckets only,
   cumulative counts, identified by their upper bound.  Prometheus
   renders these as _bucket{le="..."} lines, JSON as {"le":..,"n":..}
   objects — same pairs, two syntaxes, so the exports round-trip. *)
let cumulative_buckets h : (float * int) list =
  let cum = ref 0 in
  let acc = ref [] in
  Array.iteri
    (fun i a ->
      let c = Atomic.get a in
      if c > 0 then begin
        cum := !cum + c;
        acc := (bucket_upper i, !cum) :: !acc
      end)
    h.h_counts;
  List.rev !acc

(* Prometheus text exposition ------------------------------------------- *)

let sanitize name =
  let b = Buffer.create (String.length name + 7) in
  Buffer.add_string b "gcatch_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_prometheus t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (k, v) ->
      let n = sanitize k in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    (counters_list t);
  List.iter
    (fun (k, v) ->
      let n = sanitize k in
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (fmt_float v)))
    (gauges_list t);
  List.iter
    (fun k ->
      let h = histogram t k in
      let n = sanitize k in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let buckets = cumulative_buckets h in
      List.iter
        (fun (upper, cum) ->
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (fmt_float upper)
               cum))
        buckets;
      let total = h_count h in
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n total);
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" n (fmt_float (h_sum h)));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n total))
    (histogram_names t);
  Buffer.contents b

(* JSON export ----------------------------------------------------------- *)

let json_escape s =
  (* fast path: almost every metric name, journal key, and value is
     already clean — return it without allocating *)
  let n = String.length s in
  let rec clean i =
    i >= n
    ||
    match s.[i] with
    | '"' | '\\' -> false
    | c when Char.code c < 0x20 -> false
    | _ -> clean (i + 1)
  in
  if clean 0 then s
  else begin
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"counters\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" (json_escape k) v))
    (counters_list t);
  Buffer.add_string b "},\"gauges\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":%s" (json_escape k) (fmt_float v)))
    (gauges_list t);
  Buffer.add_string b "},\"histograms\":{";
  List.iteri
    (fun i k ->
      let h = histogram t k in
      if i > 0 then Buffer.add_char b ',';
      (* same occupied-bucket/cumulative-count schema as the Prometheus
         exposition's _bucket{le=...} lines *)
      let buckets =
        String.concat ","
          (List.map
             (fun (upper, cum) ->
               Printf.sprintf "{\"le\":%s,\"n\":%d}" (fmt_float upper) cum)
             (cumulative_buckets h))
      in
      Buffer.add_string b
        (Printf.sprintf
           "\"%s\":{\"count\":%d,\"sum\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s,\"buckets\":[%s]}"
           (json_escape k) (h_count h)
           (fmt_float (h_sum h))
           (fmt_float (h_max h))
           (fmt_float (percentile h 0.5))
           (fmt_float (percentile h 0.95))
           buckets))
    (histogram_names t);
  Buffer.add_string b "}}";
  Buffer.contents b
