type options = {
  theta : float;
  k_bytes : int;
  gamma : float;
  pack : bool;
  use_buffer_safe : bool;
  sharp_buffer_safe : bool;
  unswitch : bool;
  decomp_words : int;
  max_stubs : int;
  coder : Compress.backend;
  regions_strategy : Regions.strategy;
}

let default_options =
  {
    theta = 0.0;
    k_bytes = 512;
    gamma = 0.66;
    pack = true;
    use_buffer_safe = true;
    sharp_buffer_safe = false;
    unswitch = true;
    decomp_words = Rewrite.default_decomp_words;
    max_stubs = Rewrite.default_max_stubs;
    coder = `Split_stream;
    regions_strategy = `Dfs;
  }

type state = {
  prog : Prog.t;
  profile : Profile.t;
  options : options;
  seed_excluded : string list;
  original_words : int;
  cold : Cold.t option;
  resolved_jumps : (string * int) list;
  unswitched : (string * int) list;
  unmatched : string list;
  excluded : string list option;
  regions : Regions.t option;
  buffer_safe : Buffer_safe.t option;
  squashed : Rewrite.t option;
  lint : Verify.diag list option;
  proof : Prove.report option;
}

let init ?(options = default_options) ?(setjmp_callers = []) prog profile =
  {
    prog;
    profile;
    options;
    seed_excluded = setjmp_callers;
    original_words = Prog.text_words prog;
    cold = None;
    resolved_jumps = [];
    unswitched = [];
    unmatched = [];
    excluded = None;
    regions = None;
    buffer_safe = None;
    squashed = None;
    lint = None;
    proof = None;
  }

type t = {
  name : string;
  transform : state -> state;
  note : state -> string;
}

type stats = {
  pass_name : string;
  cost : Obs.cost;
  instrs_before : int;
  instrs_after : int;
  words_before : int;
  words_after : int;
  note : string;
}

let footprint st =
  match st.squashed with
  | Some sq -> Rewrite.total_words sq
  | None -> Prog.text_words st.prog

let missing who what pass =
  invalid_arg
    (Printf.sprintf "%s: %s missing (run the %S pass first)" who what pass)

let get_cold ~who st =
  match st.cold with Some c -> c | None -> missing who "cold analysis" "cold"

let get_regions ~who st =
  match st.regions with Some r -> r | None -> missing who "regions" "regions"

let get_buffer_safe ~who st =
  match st.buffer_safe with
  | Some b -> b
  | None -> missing who "buffer-safe analysis" "buffer-safe"

let get_excluded ~who st =
  match st.excluded with
  | Some l -> l
  | None -> missing who "exclusion set" "exclude"

let get_squashed ~who st =
  match st.squashed with
  | Some sq -> sq
  | None -> missing who "squashed image" "rewrite"
