(** The text grammar of the fault, resilience, fleet-load and device
    profiles: one [key = value] per line, [#] starts a comment, blank
    lines are skipped, key and value are trimmed. Each format keeps
    only its key table and its validation. *)

exception Invalid of string
(** A rejected profile; the message is the parser's [Error]. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raises {!Invalid} with the formatted message. *)

val iter : string -> (line:int -> string -> string -> unit) -> unit
(** [iter text f] calls [f ~line key value] on each non-blank line in
    order, lines numbered from 1; a line without [=] raises
    [Invalid "line N: expected key = value"]. *)

val unknown_key : line:int -> string -> 'a
(** Raises [Invalid "line N: unknown key \"k\""]. *)

val float : string -> string -> float
(** [float key value]; [Invalid "key: bad number \"v\""] if it is none. *)

val int : string -> string -> int
(** [int key value]; [Invalid "key: bad integer \"v\""] if it is none. *)

val load : (string -> ('a, string) result) -> path:string -> ('a, string) result
(** [load parse ~path] parses the file's text; an I/O error is [Error]. *)
