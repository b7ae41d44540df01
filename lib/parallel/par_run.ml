(* The monotonic wall clock now lives in ft_obs (Obs_clock) so the
   checker and bench layers can share it; these aliases keep the
   parallel driver's historical entry points. *)
let now = Obs_clock.now
let wall_time f = Obs_clock.wall_time f

let queue ?(obs = Obs.disabled) ~jobs ~tasks f =
  let jobs = max 1 jobs in
  Obs.span obs "parallel.region"
    ~attrs:[ ("jobs", Obs_span.Int jobs); ("tasks", Obs_span.Int tasks) ]
    (fun () -> wall_time (fun () -> Domain_pool.run_queue ~jobs ~tasks f))
