val shared : int
val twice : int
