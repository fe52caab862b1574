val run : unit -> int
