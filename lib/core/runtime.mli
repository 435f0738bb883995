(** The squash runtime: the software decompressor and the restore-stub
    machinery (paper, Sections 2.2–2.3), mounted into a {!Vm.t} as
    intrinsics at the decompressor's entry addresses.

    The engine performs the real work against simulated memory — canonical
    Huffman decoding from the compressed bitstream, materialising
    instruction words into a runtime buffer slot (which invalidates the
    VM's decode cache, standing in for the instruction-cache flush),
    creating and reference-counting restore stubs in the stub area — and
    charges simulated cycles derived from that work via the {!Cost.model}:
    [decomp_invoke + bits·decomp_per_bit + steps·decomp_per_step +
    words·decomp_per_instr + icache_flush] per decompression, where the
    bits and model steps come from the coder's {!Compress.work} report.

    The buffer is a {e cache} of [slots] decompressed-region slots (paper:
    one).  A decompressor entry whose region is already resident jumps
    straight back into the buffer for a flat [decomp_cache_hit] charge;
    otherwise the least-recently-used slot is evicted (slots whose region
    holds live restore stubs are evicted last) and the region is
    materialised into it.  Stub resume tags carry (region, slot-relative
    offset) pairs resolved through the residency map at re-entry, so a
    region may move between slots — or be evicted entirely — without
    invalidating any live stub. *)

type stats = {
  mutable decompressions : int;
  mutable bits_decoded : int;
  mutable model_steps : int;
      (** Coder model steps: decode-table probes plus work beyond bit
          consumption (MTF walks, context-table selections). *)
  mutable words_materialised : int;
  mutable cache_hits : int;
      (** Decompressor entries that found their region already resident in
          a buffer slot (each one is a decompression avoided; misses equal
          [decompressions]). *)
  mutable cache_evictions : int;
      (** Resident regions displaced to make room for another
          materialisation (always 0 when every live region fits the slot
          count). *)
  mutable stub_creates : int;
  mutable stub_reuses : int;
  mutable stub_frees : int;
  mutable live_stubs : int;
  mutable max_live_stubs : int;  (** Paper: at most 9 at θ = 0.01. *)
  per_region : int array;  (** Decompression count per region. *)
  per_region_cycles : int array;
      (** Simulated cycles charged for decompressing each region,
          including the flat re-entry charges of its cache hits (sums to
          the total runtime-overhead cycles attributable to the
          decompressor). *)
}

val stats_to_json : stats -> Report.Json.t
(** One JSON object with every scalar field plus [per_region] /
    [per_region_cycles] arrays — the single serialisation used by
    [squashc] and the bench harness. *)

val launch :
  ?cost:Cost.model ->
  ?fuel:int ->
  ?trace:Obs.Trace.t ->
  ?profile:bool ->
  ?slots:int ->
  Rewrite.t ->
  input:string ->
  Vm.t * stats
(** Create a VM loaded with the squashed image (text, offset table,
    compressed blob, stub area, buffer slots) and hook the runtime in.
    The Easm text is the VM's text; the offset table and the blob are
    stored at [Rewrite.blob_base] afterwards, so the zero gap between them
    costs nothing.
    With [~profile:true] the VM counts per-word executions of the Easm
    text only ([Vm.counts] has one entry per word of
    [sq.text.Easm.words]) — [Exp_data.reprofile_squashed] maps them back
    to source blocks through the rewrite's owner array, which covers the
    same words.  Buffer, stub and blob executions fall outside the counted
    text, mirroring a real sampled-PC profiler that cannot attribute
    scratch-buffer PCs.
    [slots] (default 1) is the number of decompressed-region cache slots;
    slot [s] occupies [buffer_base + 4·buffer_words·s].  With [trace], the
    runtime emits decompression-end, buffer-entry, cache-evict and stub
    create/reuse/free events (timestamped in simulated cycles); without it
    the only overhead is one branch per instrumented site, and the outcome
    is byte-identical.
    @raise Invalid_argument if [slots < 1], if the slot array would
    overrun the buffer area (which ends at the data segment), or if the
    text reaches past [Rewrite.blob_base]
    (["Runtime.launch: text overflows into blob"]). *)

val run :
  ?cost:Cost.model ->
  ?fuel:int ->
  ?trace:Obs.Trace.t ->
  ?slots:int ->
  Rewrite.t ->
  input:string ->
  Vm.outcome * stats
(** [launch] then {!Vm.run}. *)
