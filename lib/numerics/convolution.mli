(** Linear convolution of sampled signals.

    The distribution algebra computes sums of independent random variables
    by convolving their sampled densities, exactly as the paper's C/GSL
    implementation did. Strategies: a direct O(n·m) form (oracle and
    small-input fast path), a classic two-transform FFT form, a
    packed-real single-transform FFT form, and the overlap–add block
    method the paper names for long signals.

    The [_into] variants are the zero-allocation hot path: operands are
    read as prefixes ([a] up to [n], [b] up to [m]) of possibly oversized
    pooled arenas and the result is written to [out.(0 .. n+m-2)]. [out]
    must not alias either input. Transform scratch comes from per-domain
    workspaces, so repeated calls allocate nothing; safe to call
    concurrently from distinct domains. *)

val direct : float array -> float array -> float array
(** [direct a b] is the full linear convolution, length
    [length a + length b − 1]. O(n·m). *)

val direct_into : out:float array -> float array -> int -> float array -> int -> unit
(** [direct_into ~out a n b m] is {!direct} on prefixes, into [out]. *)

val fft : float array -> float array -> float array
(** Same result via zero-padded FFT, one forward transform per operand.
    O((n+m) log (n+m)). *)

val fft_into : out:float array -> float array -> int -> float array -> int -> unit
(** [fft_into ~out a n b m] is {!fft} on prefixes, into [out]. *)

val fft_packed : float array -> float array -> float array
(** Packed-real FFT convolution: both real operands travel in a single
    complex forward transform ([z = a + i·b]), the operand spectra are
    separated by conjugate symmetry, and one inverse transform recovers
    the product. Half the forward-transform cost of {!fft}; agrees with
    {!direct} and {!fft} to rounding (≪ 1e-9 on unit-mass densities). *)

val fft_packed_into : out:float array -> float array -> int -> float array -> int -> unit
(** [fft_packed_into ~out a n b m] is {!fft_packed} on prefixes, into [out]. *)

val overlap_add : ?block:int -> float array -> float array -> float array
(** [overlap_add ?block a b] convolves [a] (the long signal) with [b] (the
    kernel) by packed FFT on blocks of [a] of size [block] (default chosen
    from the kernel length). Equal to {!direct} up to rounding. Block
    copies and partial results live in per-domain scratch. *)

val overlap_add_into :
  out:float array -> ?block:int -> float array -> int -> float array -> int -> unit
(** [overlap_add_into ~out ?block a n b m] is {!overlap_add} on prefixes,
    into [out]. *)

val auto : float array -> float array -> float array
(** Picks a strategy from the input sizes. *)

val auto_into : out:float array -> float array -> int -> float array -> int -> unit
(** [auto_into ~out a n b m]: same dispatch as {!auto}, into [out]. *)

