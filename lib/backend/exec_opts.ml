type t = { obs : Pytfhe_obs.Trace.sink; batch : int }

let default = { obs = Pytfhe_obs.Trace.null; batch = 8 }
