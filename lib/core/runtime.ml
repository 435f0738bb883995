type stats = {
  mutable decompressions : int;
  mutable bits_decoded : int;
  mutable model_steps : int;
  mutable words_materialised : int;
  mutable cache_hits : int;
  mutable cache_evictions : int;
  mutable stub_creates : int;
  mutable stub_reuses : int;
  mutable stub_frees : int;
  mutable live_stubs : int;
  mutable max_live_stubs : int;
  per_region : int array;
  per_region_cycles : int array;
}

let stats_to_json (s : stats) =
  let open Report.Json in
  let ints arr = List (Array.to_list (Array.map (fun v -> Int v) arr)) in
  Obj
    [
      ("decompressions", Int s.decompressions);
      ("bits_decoded", Int s.bits_decoded);
      ("model_steps", Int s.model_steps);
      ("words_materialised", Int s.words_materialised);
      ("cache_hits", Int s.cache_hits);
      ("cache_evictions", Int s.cache_evictions);
      ("stub_creates", Int s.stub_creates);
      ("stub_reuses", Int s.stub_reuses);
      ("stub_frees", Int s.stub_frees);
      ("live_stubs", Int s.live_stubs);
      ("max_live_stubs", Int s.max_live_stubs);
      ("per_region", ints s.per_region);
      ("per_region_cycles", ints s.per_region_cycles);
    ]

type stub_slot = { mutable key : int * int; mutable count : int }
(* key = (region id, slot-relative resume offset); count = 0 means free.
   The key is slot-independent on purpose: a region that re-materialises in
   a different cache slot and makes the same outgoing call reuses the same
   restore stub, because the stub's tag already names the (region, offset)
   pair rather than an absolute buffer address. *)

type cache_slot = { mutable rid : int; mutable stamp : int }
(* One decompressed-region buffer: [rid] is the resident region (-1 when
   empty), [stamp] the LRU clock value of its last use. *)

type state = {
  sq : Rewrite.t;
  cost : Cost.model;
  stats : stats;
  slots : stub_slot array;
  by_key : (int * int, int) Hashtbl.t;  (* key -> stub slot index *)
  cache : cache_slot array;
  region_slot : int array;  (* region id -> cache slot index; -1 if absent *)
  region_refs : int array;  (* region id -> live restore stubs tagged with it *)
  mutable tick : int;  (* LRU clock *)
  trace : Obs.Trace.t option;
}

let stub_addr st slot = st.sq.Rewrite.stub_base + (16 * slot)
let slot_base st slot = st.sq.Rewrite.buffer_base + (4 * st.sq.Rewrite.buffer_words * slot)

let touch st slot =
  st.tick <- st.tick + 1;
  st.cache.(slot).stamp <- st.tick

(* Choose the cache slot for an incoming materialisation: an empty slot if
   one exists, otherwise evict the least-recently-used slot, preferring
   victims whose region has no live restore stubs.  (Evicting a referenced
   region is still functionally safe — stub tags are (region, offset)
   pairs resolved through the residency map on re-entry — it just makes a
   future miss more likely, so referenced regions go last.) *)
let pick_slot st vm =
  let n = Array.length st.cache in
  let empty = ref (-1) in
  for s = n - 1 downto 0 do
    if st.cache.(s).rid < 0 then empty := s
  done;
  if !empty >= 0 then !empty
  else begin
    let score s =
      let c = st.cache.(s) in
      ((if st.region_refs.(c.rid) > 0 then 1 else 0), c.stamp)
    in
    let victim = ref 0 in
    for s = 1 to n - 1 do
      if score s < score !victim then victim := s
    done;
    let c = st.cache.(!victim) in
    st.region_slot.(c.rid) <- -1;
    st.stats.cache_evictions <- st.stats.cache_evictions + 1;
    (match st.trace with
    | None -> ()
    | Some t ->
      Obs.Trace.emit t
        { ts = Obs.Event.Cycles (Vm.cycles vm);
          payload = Obs.Event.Cache_evict { region = c.rid; slot = !victim } });
    c.rid <- -1;
    !victim
  end

(* Materialise region [rid] into cache slot [slot] and charge cycles.  The
   slot decides the buffer base, so every pc-relative displacement and
   every stub resume offset is computed against this materialisation's
   address, not a global buffer. *)
let decompress st vm rid ~slot =
  let sq = st.sq in
  let base = slot_base st slot in
  let offsets = sq.Rewrite.blob_offsets in
  let bit_end =
    if rid + 1 < Array.length offsets then Some offsets.(rid + 1) else None
  in
  let instrs, { Compress.bits; steps } =
    Compress.decode_region sq.Rewrite.codes sq.Rewrite.blob
      ~bit_offset:offsets.(rid) ?bit_end ()
  in
  let words =
    Rewrite.materialise sq instrs ~base ~delta:(sq.Rewrite.buffer_words * slot)
      ~put:(fun i ins -> Vm.store_word vm (base + (4 * i)) (Instr.encode ins))
  in
  st.cache.(slot).rid <- rid;
  st.region_slot.(rid) <- slot;
  st.stats.decompressions <- st.stats.decompressions + 1;
  st.stats.bits_decoded <- st.stats.bits_decoded + bits;
  st.stats.model_steps <- st.stats.model_steps + steps;
  st.stats.words_materialised <- st.stats.words_materialised + words;
  st.stats.per_region.(rid) <- st.stats.per_region.(rid) + 1;
  let charged =
    st.cost.Cost.decomp_invoke
    + (bits * st.cost.Cost.decomp_per_bit)
    + (steps * st.cost.Cost.decomp_per_step)
    + (words * st.cost.Cost.decomp_per_instr)
    + st.cost.Cost.icache_flush
  in
  st.stats.per_region_cycles.(rid) <- st.stats.per_region_cycles.(rid) + charged;
  Vm.add_cycles vm charged;
  match st.trace with
  | None -> ()
  | Some t ->
    Obs.Trace.emit t
      { ts = Obs.Event.Cycles (Vm.cycles vm);
        payload =
          Obs.Event.Decomp_end { region = rid; bits; words; cycles = charged } }

let in_stub_area st addr =
  addr >= st.sq.Rewrite.stub_base
  && addr < st.sq.Rewrite.stub_base + (16 * st.sq.Rewrite.max_stubs)

(* Decompressor entry for return-address register [r]; [push_form] marks the
   entry used by 3-word stubs that saved the caller's ra below sp. *)
let decomp_hook st ~r ~push_form vm =
  let tag_addr = Vm.reg vm r in
  let tag = Vm.load_word vm tag_addr in
  let rid = tag lsr 16 and off = tag land 0xFFFF in
  if rid >= Array.length st.sq.Rewrite.images then
    raise (Vm.Trap { pc = Vm.pc vm; reason = "decompressor: bad region tag" });
  if in_stub_area st tag_addr then begin
    (* Invoked through a restore stub: release one reference. *)
    let slot = (tag_addr - 4 - st.sq.Rewrite.stub_base) / 16 in
    let s = st.slots.(slot) in
    if s.count > 0 then begin
      s.count <- s.count - 1;
      Vm.store_word vm (stub_addr st slot + 8) s.count;
      if s.count = 0 then begin
        Hashtbl.remove st.by_key s.key;
        st.region_refs.(fst s.key) <- st.region_refs.(fst s.key) - 1;
        st.stats.stub_frees <- st.stats.stub_frees + 1;
        st.stats.live_stubs <- st.stats.live_stubs - 1;
        match st.trace with
        | None -> ()
        | Some t ->
          Obs.Trace.emit t
            { ts = Obs.Event.Cycles (Vm.cycles vm);
              payload =
                Obs.Event.Stub_free
                  { region = fst s.key; ret = snd s.key; live = st.stats.live_stubs } }
      end
    end
  end;
  if push_form then begin
    (* The stub stored the original ra just below the stack pointer. *)
    let saved = Vm.load_word vm (Vm.reg vm Reg.sp - 4) in
    Vm.set_reg vm Reg.ra saved
  end;
  let slot =
    match st.region_slot.(rid) with
    | slot when slot >= 0 ->
      (* Resident-region fast path: the tagged region is already
         materialised and still valid (buffer slots are only written by
         the decompressor), so re-entry pays a flat dispatch cost instead
         of a full decode. *)
      st.stats.cache_hits <- st.stats.cache_hits + 1;
      st.stats.per_region_cycles.(rid) <-
        st.stats.per_region_cycles.(rid) + st.cost.Cost.decomp_cache_hit;
      Vm.add_cycles vm st.cost.Cost.decomp_cache_hit;
      slot
    | _ ->
      let slot = pick_slot st vm in
      decompress st vm rid ~slot;
      slot
  in
  touch st slot;
  let dest = slot_base st slot + (4 * off) in
  Vm.set_pc vm dest;
  match st.trace with
  | None -> ()
  | Some t ->
    Obs.Trace.emit t
      { ts = Obs.Event.Cycles (Vm.cycles vm);
        payload = Obs.Event.Buffer_enter { region = rid; offset = off; pc = dest } }

(* CreateStub entry for return-address register [r] (paper, Fig. 2): called
   from the buffer just before an outgoing call; redirects the call's return
   address to a (new or reference-bumped) restore stub.  The calling region
   is recovered from the return address: it must land inside a live cache
   slot, and that slot's base yields the slot-relative resume offset the
   stub tag carries. *)
let create_stub_hook st ~r vm =
  let ret = Vm.reg vm r in
  let bw = st.sq.Rewrite.buffer_words in
  let cslot =
    if bw <= 0 then -1 else (ret - st.sq.Rewrite.buffer_base) / (4 * bw)
  in
  if
    ret < st.sq.Rewrite.buffer_base
    || cslot >= Array.length st.cache
    || cslot < 0
    || st.cache.(cslot).rid < 0
  then
    raise
      (Vm.Trap { pc = Vm.pc vm; reason = "createstub: return address outside a live slot" });
  let region = st.cache.(cslot).rid in
  (* ret points at the br/jmp word following the bsr in the buffer. *)
  let resume_off = ((ret - slot_base st cslot) / 4) + 1 in
  let key = (region, resume_off) in
  let slot =
    match Hashtbl.find_opt st.by_key key with
    | Some slot ->
      let s = st.slots.(slot) in
      s.count <- s.count + 1;
      Vm.store_word vm (stub_addr st slot + 8) s.count;
      st.stats.stub_reuses <- st.stats.stub_reuses + 1;
      (match st.trace with
      | None -> ()
      | Some t ->
        Obs.Trace.emit t
          { ts = Obs.Event.Cycles (Vm.cycles vm);
            payload =
              Obs.Event.Stub_reuse { region; ret; live = st.stats.live_stubs } });
      slot
    | None ->
      let slot =
        let rec find i =
          if i >= Array.length st.slots then
            raise
              (Vm.Trap { pc = Vm.pc vm; reason = "createstub: stub area exhausted" })
          else if st.slots.(i).count = 0 then i
          else find (i + 1)
        in
        find 0
      in
      let s = st.slots.(slot) in
      s.key <- key;
      s.count <- 1;
      Hashtbl.replace st.by_key key slot;
      let base = stub_addr st slot in
      let bsr_disp = (Rewrite.decomp_entry st.sq r - (base + 4)) asr 2 in
      Vm.store_word vm base (Instr.encode (Instr.Bsr { ra = r; disp = bsr_disp }));
      if region > 0xFFFF || resume_off > 0xFFFF then
        raise (Vm.Trap { pc = Vm.pc vm; reason = "createstub: tag overflow" });
      Vm.store_word vm (base + 4) ((region lsl 16) lor resume_off);
      Vm.store_word vm (base + 8) 1;
      Vm.store_word vm (base + 12) (ret land Word.mask);
      st.region_refs.(region) <- st.region_refs.(region) + 1;
      st.stats.stub_creates <- st.stats.stub_creates + 1;
      st.stats.live_stubs <- st.stats.live_stubs + 1;
      if st.stats.live_stubs > st.stats.max_live_stubs then
        st.stats.max_live_stubs <- st.stats.live_stubs;
      (match st.trace with
      | None -> ()
      | Some t ->
        Obs.Trace.emit t
          { ts = Obs.Event.Cycles (Vm.cycles vm);
            payload =
              Obs.Event.Stub_create { region; ret; live = st.stats.live_stubs } });
      slot
  in
  Vm.set_reg vm r (stub_addr st slot);
  Vm.add_cycles vm st.cost.Cost.stub_invoke;
  Vm.set_pc vm ret

let launch ?(cost = Cost.default) ?fuel ?trace ?profile ?(slots = 1) (sq : Rewrite.t)
    ~input =
  if slots < 1 then invalid_arg "Runtime.launch: slots must be >= 1";
  let nregions = Array.length sq.Rewrite.images in
  if sq.Rewrite.buffer_base + (4 * sq.Rewrite.buffer_words * slots) > Layout.data_base
  then invalid_arg "Runtime.launch: cache slots overflow the buffer area";
  (* Load the image, then store the offset table and the blob bytes at
     blob_base; the zero gap between them is never touched. *)
  let img = sq.Rewrite.image in
  if img.Layout.text_base + (4 * Layout.text_words img) > Rewrite.blob_base then
    invalid_arg "Runtime.launch: text overflows into blob";
  let vm = Vm.of_image ~cost ?fuel ?profile img ~input in
  Array.iteri
    (fun i off -> Vm.store_word vm (Rewrite.blob_base + (4 * i)) off)
    sq.Rewrite.blob_offsets;
  String.iteri
    (fun i c -> Vm.store_byte vm (Rewrite.blob_base + (4 * nregions) + i) (Char.code c))
    sq.Rewrite.blob;
  let stats =
    {
      decompressions = 0;
      bits_decoded = 0;
      model_steps = 0;
      words_materialised = 0;
      cache_hits = 0;
      cache_evictions = 0;
      stub_creates = 0;
      stub_reuses = 0;
      stub_frees = 0;
      live_stubs = 0;
      max_live_stubs = 0;
      per_region = Array.make (max 1 nregions) 0;
      per_region_cycles = Array.make (max 1 nregions) 0;
    }
  in
  let st =
    {
      sq;
      cost;
      stats;
      slots = Array.init sq.Rewrite.max_stubs (fun _ -> { key = (-1, -1); count = 0 });
      by_key = Hashtbl.create 16;
      cache = Array.init slots (fun _ -> { rid = -1; stamp = 0 });
      region_slot = Array.make (max 1 nregions) (-1);
      region_refs = Array.make (max 1 nregions) 0;
      tick = 0;
      trace;
    }
  in
  for r = 0 to Reg.count - 1 do
    Vm.install_hook vm ~addr:(Rewrite.decomp_entry sq r)
      (decomp_hook st ~r ~push_form:false);
    Vm.install_hook vm ~addr:(Rewrite.create_stub_entry sq r) (create_stub_hook st ~r)
  done;
  Vm.install_hook vm ~addr:(Rewrite.decomp_entry_push sq)
    (decomp_hook st ~r:Reg.ra ~push_form:true);
  (vm, stats)

let run ?cost ?fuel ?trace ?slots sq ~input =
  let vm, stats = launch ?cost ?fuel ?trace ?slots sq ~input in
  (Vm.run vm, stats)
