(** The 8x8 zig-zag scan that orders coefficients from low to high
    spatial frequency, concentrating the trailing zeros the run-length
    coder exploits. *)

val scan_order : int array
(** [scan_order.(k)] is the row-major index of the [k]-th coefficient
    in zig-zag order; a permutation of [0..63] starting at the DC
    term. *)
