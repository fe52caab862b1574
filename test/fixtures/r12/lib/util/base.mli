val shared : int
(** Named by consumers only through [Extended]'s [include]: clean. *)
