type t = {
  name : string;
  description : string;
  source : string;
  profiling_input : string Lazy.t;
  timing_input : string Lazy.t;
  drift_input : string Lazy.t;
}

let compile t =
  match Minic.compile t.source with
  | Ok p -> p
  | Error e ->
    failwith (Printf.sprintf "workload %s: %s" t.name (Minic.error_to_string e))

(* Experiment cells of one workload force its inputs from several domains
   at once, and forcing a lazy value that another domain is forcing raises
   [CamlinternalLazy.Undefined].  Every force takes the lock: [Lazy.is_val]
   is already true while another domain forces, so it cannot guard a fast
   path. *)
let force_lock = Mutex.create ()

let force l = Mutex.protect force_lock (fun () -> Lazy.force l)
let profiling_input t = force t.profiling_input
let timing_input t = force t.timing_input
let drift_input t = force t.drift_input
