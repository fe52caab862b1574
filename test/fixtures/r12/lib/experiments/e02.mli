val id : string
val run : unit -> int
