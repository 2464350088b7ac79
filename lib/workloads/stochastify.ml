type shape =
  | Beta of { alpha : float; beta : float }
  | Uniform
  | Triangular of { mode : float }
  | Oscillating

type t = {
  ul : float;
  shape : shape;
  points : int;
  task_ul : (int -> float) option;
}

(* ------------------------------------------------------------------ *)
(* The unit perturbation X on [0,1]                                    *)
(* ------------------------------------------------------------------ *)

(* the Oscillating shape: a tri-modal Beta mixture (weight, alpha, beta,
   lo, hi) — the Fig. 7 "special" distribution squeezed into [0,1] *)
let oscillating_components =
  [ (0.35, 2., 5., 0., 0.30); (0.40, 5., 2., 0.20, 0.70); (0.25, 3., 3., 0.625, 1.0) ]

let check_shape = function
  | Beta { alpha; beta } ->
    if alpha <= 1. || beta <= 1. then
      invalid_arg "Stochastify: Beta shape needs alpha > 1 and beta > 1"
  | Uniform -> ()
  | Triangular { mode } ->
    if mode < 0. || mode > 1. then
      invalid_arg "Stochastify: Triangular mode must be in [0,1]"
  | Oscillating -> ()

let beta_mean ~alpha ~beta = alpha /. (alpha +. beta)

let beta_var ~alpha ~beta =
  let s = alpha +. beta in
  alpha *. beta /. (s *. s *. (s +. 1.))

let shape_mean = function
  | Beta { alpha; beta } -> beta_mean ~alpha ~beta
  | Uniform -> 0.5
  | Triangular { mode } -> (1. +. mode) /. 3.
  | Oscillating ->
    List.fold_left
      (fun acc (w, a, b, lo, hi) -> acc +. (w *. (lo +. ((hi -. lo) *. beta_mean ~alpha:a ~beta:b))))
      0. oscillating_components

let shape_variance = function
  | Beta { alpha; beta } -> beta_var ~alpha ~beta
  | Uniform -> 1. /. 12.
  | Triangular { mode } ->
    (* var of Triangular(0, mode, 1) *)
    (1. +. (mode *. mode) -. mode) /. 18.
  | Oscillating ->
    (* mixture: E[X²] − E[X]² from component moments *)
    let m = shape_mean Oscillating in
    let m2 =
      List.fold_left
        (fun acc (w, a, b, lo, hi) ->
          let mu_i = lo +. ((hi -. lo) *. beta_mean ~alpha:a ~beta:b) in
          let var_i = (hi -. lo) *. (hi -. lo) *. beta_var ~alpha:a ~beta:b in
          acc +. (w *. (var_i +. (mu_i *. mu_i))))
        0. oscillating_components
    in
    Float.max 0. (m2 -. (m *. m))

let shape_std s = sqrt (shape_variance s)

let shape_pdf shape x =
  if x < 0. || x > 1. then 0.
  else
    match shape with
    | Beta { alpha; beta } -> Numerics.Special.beta_pdf ~alpha ~beta x
    | Uniform -> 1.
    | Triangular { mode } ->
      if x < mode then 2. *. x /. mode
      else if x > mode then 2. *. (1. -. x) /. (1. -. mode)
      else 2.
    | Oscillating ->
      List.fold_left
        (fun acc (w, a, b, lo, hi) ->
          if x < lo || x > hi then acc
          else
            acc
            +. (w /. (hi -. lo) *. Numerics.Special.beta_pdf ~alpha:a ~beta:b ((x -. lo) /. (hi -. lo))))
        0. oscillating_components

let shape_cdf shape x =
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    match shape with
    | Beta { alpha; beta } -> Numerics.Special.betainc ~alpha ~beta x
    | Uniform -> x
    | Triangular { mode } ->
      if x < mode then x *. x /. mode else 1. -. ((1. -. x) *. (1. -. x) /. (1. -. mode))
    | Oscillating ->
      List.fold_left
        (fun acc (w, a, b, lo, hi) ->
          let frac =
            if x <= lo then 0.
            else if x >= hi then 1.
            else Numerics.Special.betainc ~alpha:a ~beta:b ((x -. lo) /. (hi -. lo))
          in
          acc +. (w *. frac))
        0. oscillating_components

let shape_quantile shape u =
  if u < 0. || u > 1. then invalid_arg "Stochastify.shape_quantile: u must be in [0,1]";
  if u = 0. then 0.
  else if u = 1. then 1.
  else
    match shape with
    | Beta { alpha; beta } -> Numerics.Special.betainc_inv ~alpha ~beta u
    | Uniform -> u
    | Triangular { mode } ->
      if u < mode then sqrt (u *. mode) else 1. -. sqrt ((1. -. u) *. (1. -. mode))
    | Oscillating ->
      (* the mixture CDF is strictly increasing where its support is;
         numeric inversion is cheap and exact enough *)
      Numerics.Rootfind.brent ~tol:1e-12 ~f:(fun x -> shape_cdf shape x -. u) ~lo:0. ~hi:1. ()

let shape_sample shape rng =
  match shape with
  | Beta { alpha; beta } -> Prng.Sampler.beta rng ~alpha ~beta
  | Uniform -> Prng.Xoshiro.next_float rng
  | Triangular _ -> shape_quantile shape (Prng.Xoshiro.next_float rng)
  | Oscillating ->
    (* pick a component by weight, then sample its scaled Beta *)
    let u = Prng.Xoshiro.next_float rng in
    let rec pick acc = function
      | [] -> List.nth oscillating_components (List.length oscillating_components - 1)
      | ((w, _, _, _, _) as c) :: rest -> if u < acc +. w then c else pick (acc +. w) rest
    in
    let _, a, b, lo, hi = pick 0. oscillating_components in
    lo +. ((hi -. lo) *. Prng.Sampler.beta rng ~alpha:a ~beta:b)

(* ------------------------------------------------------------------ *)
(* Model construction                                                  *)
(* ------------------------------------------------------------------ *)

let check_points points =
  if points < 2 then invalid_arg "Stochastify.make: points must be >= 2"

let make_shaped ?(points = Distribution.Dist.default_points) ~shape ~ul () =
  if not (Float.is_finite ul && ul >= 1.) then
    invalid_arg "Stochastify.make: UL must be finite and >= 1";
  check_points points;
  check_shape shape;
  { ul; shape; points; task_ul = None }

let make ?(alpha = 2.) ?(beta = 5.) ?points ~ul () =
  make_shaped ?points ~shape:(Beta { alpha; beta }) ~ul ()

let make_variable ?(alpha = 2.) ?(beta = 5.) ?(points = Distribution.Dist.default_points)
    ~base_ul ~task_ul () =
  if not (Float.is_finite base_ul && base_ul >= 1.) then
    invalid_arg "Stochastify.make_variable: base UL must be finite and >= 1";
  check_points points;
  let shape = Beta { alpha; beta } in
  check_shape shape;
  { ul = base_ul; shape; points; task_ul = Some task_ul }

let effective_ul t ~task =
  match t.task_ul with Some f -> Float.max 1. (f task) | None -> t.ul

let deterministic =
  { ul = 1.; shape = Beta { alpha = 2.; beta = 5. };
    points = Distribution.Dist.default_points; task_ul = None }

(* ------------------------------------------------------------------ *)
(* Views of a perturbed weight                                         *)
(* ------------------------------------------------------------------ *)

let dist_at t ~ul w =
  if w < 0. then invalid_arg "Stochastify.dist: negative weight";
  if w = 0. || ul = 1. then Distribution.Dist.const w
  else
    Distribution.Dist.of_fn ~points:t.points ~lo:w ~hi:(w *. ul) (fun x ->
        shape_pdf t.shape ((x -. w) /. (w *. (ul -. 1.))))

let mean_at t ~ul w = w *. (1. +. ((ul -. 1.) *. shape_mean t.shape))

let std_at t ~ul w = w *. (ul -. 1.) *. shape_std t.shape

let sample_at t ~ul rng w =
  if w = 0. || ul = 1. then w else w *. (1. +. ((ul -. 1.) *. shape_sample t.shape rng))

let sample_quantile_at t ~ul ~u w =
  if u < 0. || u > 1. then invalid_arg "Stochastify.sample_quantile: u must be in [0,1]";
  if w = 0. || ul = 1. then w
  else w *. (1. +. ((ul -. 1.) *. shape_quantile t.shape u))

(* weight-level views at the base UL (used for communications and by
   callers without a task identity) *)
let dist t w = dist_at t ~ul:t.ul w
let mean t w = mean_at t ~ul:t.ul w
let std t w = std_at t ~ul:t.ul w
let sample t rng w = sample_at t ~ul:t.ul rng w
let sample_quantile t ~u w = sample_quantile_at t ~ul:t.ul ~u w

(* task durations honour the per-task UL *)
let task_dist t p ~task ~proc =
  dist_at t ~ul:(effective_ul t ~task) (Platform.etc p ~task ~proc)

let task_mean t p ~task ~proc =
  mean_at t ~ul:(effective_ul t ~task) (Platform.etc p ~task ~proc)

let task_std t p ~task ~proc =
  std_at t ~ul:(effective_ul t ~task) (Platform.etc p ~task ~proc)

let task_sample t rng p ~task ~proc =
  sample_at t ~ul:(effective_ul t ~task) rng (Platform.etc p ~task ~proc)

let task_sample_quantile t ~u p ~task ~proc =
  sample_quantile_at t ~ul:(effective_ul t ~task) ~u (Platform.etc p ~task ~proc)

let comm_weight p ~volume ~src ~dst = Platform.comm_time p ~src ~dst ~volume

let comm_dist t p ~volume ~src ~dst = dist t (comm_weight p ~volume ~src ~dst)
let comm_mean t p ~volume ~src ~dst = mean t (comm_weight p ~volume ~src ~dst)
let comm_std t p ~volume ~src ~dst = std t (comm_weight p ~volume ~src ~dst)

let comm_sample t rng p ~volume ~src ~dst = sample t rng (comm_weight p ~volume ~src ~dst)

let comm_sample_quantile t ~u p ~volume ~src ~dst =
  sample_quantile t ~u (comm_weight p ~volume ~src ~dst)
