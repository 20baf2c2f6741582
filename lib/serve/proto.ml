(* JSON for the gcatchd request protocol: the request accessors over
   {!Goobs.Json}'s value type, and [member_raw] for the verbatim run
   JSON a response envelope carries. *)

type t = Goobs.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let parse = Goobs.Json.parse
let member_raw = Goobs.Json.member_raw

(* Accessors ------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None
let arr = function Arr l -> Some l | _ -> None
let bool_ = function Bool b -> Some b | _ -> None

let mem_str k v = Option.bind (member k v) str
let mem_int k v = Option.map int_of_float (Option.bind (member k v) num)
let mem_bool k v = Option.bind (member k v) bool_
