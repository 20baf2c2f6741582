(* Unified diagnostics for the staged analysis engine.

   Every finding the pipeline can produce — a lexer/parser/typechecker
   error, a BMOC report, a traditional-checker report, a non-blocking
   misuse report — is represented by one record: severity, the pass that
   produced it, a human-readable message, an optional source location,
   and an optional typed payload that downstream tools (GFix, the
   scorer) can recover the original report from.

   This replaces the scattered [Parse_error]/[Type_error] exception
   handling and the ad-hoc [Report.*_str] printing the entry points used
   to do by hand: the engine converts frontend exceptions into [Error]
   diagnostics, detector passes attach their reports as payloads, and a
   single renderer produces either human or JSON output. *)

type severity = Error | Warning | Info

let severity_str = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* Detector libraries extend this with their own report types, e.g.
   [type payload += Bmoc_bug of Report.bmoc_bug], so a diagnostic can be
   both rendered generically and consumed with full type information. *)
type payload = ..

type payload += No_payload

type t = {
  severity : severity;
  pass : string;          (* "frontend/parse", "bmoc", "trad.double-lock", … *)
  message : string;
  loc : Minigo.Loc.t option;
  payload : payload;
}

let v ?(severity = Error) ?loc ?(payload = No_payload) ~pass message =
  { severity; pass; message; loc; payload }

let is_error d = d.severity = Error

(* ------------------------------------------------- human rendering --- *)

(* Detector messages already embed their locations (they reuse the
   classic [Report.*_str] formats), so the human renderer prints the
   message verbatim — keeping CLI output identical to the pre-engine
   tools. *)
let render_human (d : t) : string = d.message

let to_string (d : t) : string =
  Printf.sprintf "[%s] %s: %s%s" d.pass (severity_str d.severity) d.message
    (match d.loc with
    | Some l when d.loc <> Some Minigo.Loc.none ->
        " @ " ^ Minigo.Loc.to_string l
    | _ -> "")

(* -------------------------------------------------- JSON rendering --- *)

module M = Goobs.Metrics

(* Hand-rolled emitter: the build environment has no JSON library and
   the schema is small. *)
let loc_to_json (l : Minigo.Loc.t) : string =
  Printf.sprintf {|{"file":"%s","line":%d,"col":%d}|}
    (M.json_escape (Minigo.Loc.file l))
    (Minigo.Loc.line l) l.Minigo.Loc.col

let to_json (d : t) : string =
  Printf.sprintf {|{"pass":"%s","severity":"%s","message":"%s","loc":%s}|}
    (M.json_escape d.pass)
    (severity_str d.severity)
    (M.json_escape d.message)
    (match d.loc with
    | Some l when not (Minigo.Loc.equal l Minigo.Loc.none) -> loc_to_json l
    | _ -> "null")

let list_to_json (ds : t list) : string =
  "[" ^ String.concat "," (List.map to_json ds) ^ "]"
