let id = "E01"
let run () = 1
