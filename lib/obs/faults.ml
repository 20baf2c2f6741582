(* Deterministic fault injection (the testing half of the supervision
   layer).

   Production code is sprinkled with *sites* — named points where a
   failure can plausibly originate: the constraint solver, the on-disk
   store, a pool worker, the per-file frontend, a served connection.
   In normal operation every site is a single atomic load ([fire]
   returns [None] when no plan is set), so the clean path pays
   essentially nothing.
   Under a plan — [GCATCH_FAULTS] or [--inject-faults] — a site raises,
   stalls, or corrupts at a precisely chosen occurrence, so CI can prove
   that the fault boundaries around it contain the damage.

   Plan grammar (comma-separated items):

     item   ::= "seed=" INT
              | SITE [":" NTH] ["@" KEYSUB] ["!" ACTION]
     NTH    ::= INT          fire on the nth trigger of the site (1-based)
              | "*"          fire on every trigger
     KEYSUB ::= string       fire only when the trigger's key contains it
     ACTION ::= "raise" (default) | "timeout" | "stall" | "corrupt"

   Determinism: an [NTH]-selected fault counts triggers with one atomic
   counter per plan item, so under a parallel schedule *which* unit
   draws the nth trigger can vary; a [KEYSUB]-selected fault fires on
   the key alone and is therefore schedule-independent — tests that
   compare --jobs 1 against --jobs 4 select by key.  [seed=N] gives
   items with no explicit NTH a pseudo-random (but seeded, hence
   reproducible) placement instead of the default first trigger. *)

type action = Raise | Timeout | Stall | Corrupt

type which = Nth of int | Every

type spec = {
  s_site : string;
  s_which : which;
  s_key : string option; (* substring selector on the trigger key *)
  s_action : action;
}

(* The site registry.  [fire] on an unregistered site is a programming
   error; [parse] rejects plans naming unknown sites so a CLI typo is a
   usage error, not a silently inert plan. *)
let sites =
  [
    "frontend";
    "solver";
    "pool";
    "cache.read";
    "cache.write";
    "conn.accept";
    "conn.read";
    "conn.write";
  ]

exception Injected of string * string (* site, key *)

let () =
  Printexc.register_printer (function
    | Injected (site, key) ->
        Some
          (Printf.sprintf "Faults.Injected(site=%s%s)" site
             (if key = "" then "" else ", key=" ^ key))
    | _ -> None)

(* ----------------------------------------------------------- parse --- *)

let action_of_string = function
  | "raise" -> Some Raise
  | "timeout" -> Some Timeout
  | "stall" -> Some Stall
  | "corrupt" -> Some Corrupt
  | _ -> None

let action_str = function
  | Raise -> "raise"
  | Timeout -> "timeout"
  | Stall -> "stall"
  | Corrupt -> "corrupt"

let split_on_first c s =
  match String.index_opt s c with
  | None -> (s, None)
  | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )

(* With a seed and no explicit NTH, place the fault on a seeded
   pseudo-random early trigger: reproducible for a fixed (seed, site),
   varied across seeds — the "fuzz the placement" mode.  The hash must
   be a stable function of the (seed, site) *strings*: Hashtbl.hash on
   a tuple is free to change between OCaml releases, which would move
   every seeded plan's placement under a compiler upgrade.  MD5 of a
   canonical encoding is fixed forever; suite_faults pins values. *)
let seeded_nth seed site =
  let d = Digest.string (string_of_int seed ^ "\x00" ^ site) in
  1 + ((Char.code d.[0] lor (Char.code d.[1] lsl 8)) mod 4)

let parse (s : string) : (spec list, string) result =
  let items =
    List.filter
      (fun x -> x <> "")
      (List.map String.trim (String.split_on_char ',' s))
  in
  let seed = ref None in
  let err = ref None in
  let specs =
    List.filter_map
      (fun item ->
        if !err <> None then None
        else if String.length item > 5 && String.sub item 0 5 = "seed=" then (
          (match int_of_string_opt (String.sub item 5 (String.length item - 5)) with
          | Some n -> seed := Some n
          | None -> err := Some (Printf.sprintf "bad seed in %S" item));
          None)
        else begin
          let body, action_s = split_on_first '!' item in
          let body, key = split_on_first '@' body in
          let site, nth_s = split_on_first ':' body in
          let which =
            match nth_s with
            | None -> None (* resolved against the seed below *)
            | Some "*" -> Some Every
            | Some n -> (
                match int_of_string_opt n with
                | Some n when n >= 1 -> Some (Nth n)
                | _ ->
                    err := Some (Printf.sprintf "bad occurrence in %S" item);
                    None)
          in
          let action =
            match action_s with
            | None -> Some Raise
            | Some a -> (
                match action_of_string a with
                | Some a -> Some a
                | None ->
                    err := Some (Printf.sprintf "bad action in %S" item);
                    None)
          in
          if not (List.mem site sites) then begin
            err :=
              Some
                (Printf.sprintf "unknown fault site %S (known: %s)" site
                   (String.concat ", " sites));
            None
          end
          else
            match (which, action, !err) with
            | w, Some a, None ->
                Some (fun seed ->
                    {
                      s_site = site;
                      s_which =
                        (match w with
                        | Some w -> w
                        | None -> (
                            match seed with
                            | Some sd -> Nth (seeded_nth sd site)
                            | None -> Nth 1));
                      s_key = key;
                      s_action = a;
                    })
            | _ -> None
        end)
      items
  in
  match !err with
  | Some e -> Error e
  | None -> Ok (List.map (fun mk -> mk !seed) specs)

(* ------------------------------------------------------------ plan --- *)

type armed = { spec : spec; count : int Atomic.t }

let plan : armed list Atomic.t = Atomic.make []

let set_plan specs =
  Atomic.set plan
    (List.map (fun spec -> { spec; count = Atomic.make 0 }) specs)

let clear () = Atomic.set plan []
let active () = Atomic.get plan <> []

(* [GCATCH_FAULTS] arms a plan for processes not started through a CLI
   flag (the CI matrix drives tests this way).  A malformed variable is
   ignored rather than fatal: the library must never abort a host
   program over an env var. *)
let () =
  match Sys.getenv_opt "GCATCH_FAULTS" with
  | None -> ()
  | Some s -> ( match parse s with Ok specs -> set_plan specs | Error _ -> ())

(* How long a [Stall] action sleeps: long enough to overlap a deadline
   watchdog in tests, short enough not to matter anywhere else. *)
let stall_s = 0.05

(* ------------------------------------------------------------ fire --- *)

let key_matches sel key =
  match sel with
  | None -> true
  | Some sub -> (
      let kl = String.length key and sl = String.length sub in
      sl <= kl
      &&
      let rec go i = i + sl <= kl && (String.sub key i sl = sub || go (i + 1)) in
      go 0)

(* Ask whether the (site, key) trigger should fault.  The fast path —
   no plan armed — is one atomic load and a physical-equality check. *)
let fire ~site ?(key = "") () : action option =
  match Atomic.get plan with
  | [] -> None
  | armed ->
      let hit =
        List.find_map
          (fun a ->
            if a.spec.s_site <> site || not (key_matches a.spec.s_key key)
            then None
            else
              let n = 1 + Atomic.fetch_and_add a.count 1 in
              match a.spec.s_which with
              | Every -> Some a.spec.s_action
              | Nth k -> if n = k then Some a.spec.s_action else None)
          armed
      in
      (match hit with
      | Some action when Journal.enabled () ->
          Journal.emit ~event:"fault.fired"
            [
              ("site", Journal.S site);
              ("key", Journal.S key);
              ("action", Journal.S (action_str action));
            ]
      | _ -> ());
      hit

(* Convenience for sites with no action-specific behaviour: [Raise],
   [Timeout] and [Corrupt] all raise {!Injected} (the site has nothing
   to corrupt and no solver to time out); [Stall] sleeps and returns. *)
let trigger ~site ?(key = "") () : unit =
  match fire ~site ~key () with
  | None -> ()
  | Some Stall -> Unix.sleepf stall_s
  | Some (Raise | Timeout | Corrupt) -> raise (Injected (site, key))
