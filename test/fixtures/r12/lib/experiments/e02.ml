let id = "E02"
let run () = 2
