//! Functional global memory and the analytic timing model of the memory
//! hierarchy (L1 per SM → shared L2 → multi-channel DRAM).
//!
//! Timing is *analytic*: an access immediately computes its completion cycle
//! from cache state, MSHR occupancy and channel busy-until times, updating
//! those structures along the way. This captures the three effects the paper
//! depends on — latency-bound pointer chasing, MSHR-limited memory-level
//! parallelism, and DRAM bandwidth saturation — without a full event queue.

use crate::config::MemConfig;
use crate::fast_hash::FastMap;
use crate::snapshot::{load_each, BagError, Snap, SnapValue, StateBag};
use std::collections::BinaryHeap;
use trace::{TraceHandle, Track};

/// Byte-addressable functional memory with a bump allocator.
///
/// # Examples
///
/// ```
/// use tta_gpu_sim::GlobalMemory;
///
/// let mut mem = GlobalMemory::new(1 << 20);
/// let buf = mem.alloc(256, 64);
/// mem.write_u32(buf, 42);
/// assert_eq!(mem.read_u32(buf), 42);
/// ```
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    bytes: Vec<u8>,
    next_free: usize,
}

impl GlobalMemory {
    /// Creates a memory of `capacity` bytes, zero-filled.
    pub fn new(capacity: usize) -> Self {
        GlobalMemory {
            bytes: vec![0; capacity],
            next_free: 64,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    /// Allocates `size` bytes aligned to `align`, returning the byte
    /// address. Allocation never frees (arena style — a simulation owns its
    /// memory image for its whole life).
    ///
    /// # Panics
    ///
    /// Panics when out of memory or `align` is not a power of two.
    pub fn alloc(&mut self, size: usize, align: usize) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        // Checked arithmetic: a huge `size` must report exhaustion, not
        // wrap around in release builds and hand out an aliased base.
        let end = self
            .next_free
            .checked_add(align - 1)
            .map(|v| v & !(align - 1))
            .and_then(|base| base.checked_add(size).map(|end| (base, end)));
        match end {
            Some((base, end)) if end <= self.bytes.len() => {
                self.next_free = end;
                base as u64
            }
            _ => panic!("simulated GPU memory exhausted"),
        }
    }

    /// Reports an out-of-bounds access with full context, so sanitizer
    /// and absint diagnoses are attributable to an address and size
    /// instead of a raw slice-index panic.
    #[cold]
    #[inline(never)]
    fn oob(&self, kind: &str, addr: u64, len: usize) -> ! {
        panic!(
            "simulated GPU OOB: {kind} {len} B at {addr:#x} beyond capacity {} B",
            self.bytes.len()
        );
    }

    /// Copies a byte slice into memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds writes.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let a = addr as usize;
        match a
            .checked_add(data.len())
            .and_then(|e| self.bytes.get_mut(a..e))
        {
            Some(dst) => dst.copy_from_slice(data),
            None => self.oob("write", addr, data.len()),
        }
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds reads.
    pub fn read_bytes(&self, addr: u64, len: usize) -> &[u8] {
        let a = addr as usize;
        match a.checked_add(len).and_then(|e| self.bytes.get(a..e)) {
            Some(src) => src,
            None => self.oob("read", addr, len),
        }
    }

    /// Reads a `u32`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds reads.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let a = addr as usize;
        match a.checked_add(4).and_then(|e| self.bytes.get(a..e)) {
            Some(src) => u32::from_le_bytes(src.try_into().expect("4-byte slice")),
            None => self.oob("read", addr, 4),
        }
    }

    /// Writes a `u32`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds writes.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let a = addr as usize;
        match a.checked_add(4).and_then(|e| self.bytes.get_mut(a..e)) {
            Some(dst) => dst.copy_from_slice(&value.to_le_bytes()),
            None => self.oob("write", addr, 4),
        }
    }

    /// Reads an `f32`.
    #[inline]
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32`.
    #[inline]
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Exports the memory image (snapshot support). The zero tail past the
    /// last nonzero byte is elided — fresh memory is zero-filled, so the
    /// prefix plus the capacity reproduces the image exactly.
    pub fn export_state(&self) -> StateBag {
        let used = self
            .bytes
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        let mut bag = StateBag::new();
        bag.put("capacity", self.bytes.len().save());
        bag.put("next_free", self.next_free.save());
        bag.put("image", SnapValue::Bytes(self.bytes[..used].to_vec()));
        bag
    }

    /// Restores the image exported by [`GlobalMemory::export_state`] onto
    /// memory of the same capacity (every restore host sizes its memory
    /// with the exporter's formula), zero-filling past the image.
    ///
    /// # Errors
    ///
    /// [`BagError::Mismatch`] when the capacity differs from this host's
    /// or the allocation cursor or image runs past it — checked before
    /// anything is written, so a hostile file cannot make the reader
    /// allocate; other [`BagError`]s for a malformed bag.
    pub fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let (mut capacity, mut next_free) = (0usize, 0usize);
        capacity.load(bag.entry("capacity")?, "capacity")?;
        next_free.load(bag.entry("next_free")?, "next_free")?;
        let image = bag.entry("image")?.as_bytes("image")?;
        if capacity != self.bytes.len() || next_free > capacity || image.len() > capacity {
            return Err(BagError::Mismatch(format!(
                "memory snapshot (capacity {capacity} B, cursor {next_free} B, image {} B) \
                 does not fit this host's {} B",
                image.len(),
                self.bytes.len()
            )));
        }
        self.bytes[..image.len()].copy_from_slice(image);
        self.bytes[image.len()..].fill(0);
        self.next_free = next_free;
        Ok(())
    }
}

/// Aggregate statistics of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (including MSHR merges).
    pub misses: u64,
    /// Misses merged into an in-flight fill (no new lower-level traffic).
    pub mshr_merges: u64,
}

impl CacheStats {
    /// The counts accumulated since `before`, an earlier reading.
    pub fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            mshr_merges: self.mshr_merges - before.mshr_merges,
        }
    }

    /// Adds `part`'s counts, the inverse of [`CacheStats::since`].
    pub fn absorb(&mut self, part: &CacheStats) {
        self.hits += part.hits;
        self.misses += part.misses;
        self.mshr_merges += part.mshr_merges;
    }

    /// Counts one lookup: a merge into an in-flight fill is a miss too.
    fn count(&mut self, found: Lookup) {
        match found {
            Lookup::Hit => self.hits += 1,
            Lookup::Merge(_) => {
                self.misses += 1;
                self.mshr_merges += 1;
            }
            Lookup::Miss(_) => self.misses += 1,
        }
    }
}

/// DRAM activity statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramStats {
    /// Bytes read from DRAM (line fills).
    pub bytes_read: u64,
    /// Bytes written to DRAM.
    pub bytes_written: u64,
    /// Bytes requested by read transactions (demand traffic, before caches).
    pub bytes_requested: u64,
    /// Busy time summed over channels, in channel-cycles.
    pub busy_channel_cycles: f64,
    /// Number of DRAM transactions.
    pub transactions: u64,
}

impl DramStats {
    /// The activity accumulated since `before`, an earlier reading.
    pub fn since(&self, before: &DramStats) -> DramStats {
        DramStats {
            bytes_read: self.bytes_read - before.bytes_read,
            bytes_written: self.bytes_written - before.bytes_written,
            bytes_requested: self.bytes_requested - before.bytes_requested,
            busy_channel_cycles: self.busy_channel_cycles - before.busy_channel_cycles,
            transactions: self.transactions - before.transactions,
        }
    }

    /// Adds `part`'s activity, the inverse of [`DramStats::since`].
    pub fn absorb(&mut self, part: &DramStats) {
        self.bytes_read += part.bytes_read;
        self.bytes_written += part.bytes_written;
        self.bytes_requested += part.bytes_requested;
        self.busy_channel_cycles += part.busy_channel_cycles;
        self.transactions += part.transactions;
    }

    /// Bandwidth utilization in [0, 1] for a run of `cycles` compute cycles
    /// over `channels` channels.
    pub fn utilization(&self, cycles: u64, channels: usize) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        (self.busy_channel_cycles / (cycles as f64 * channels as f64)).min(1.0)
    }
}

/// "No ring yet": the `oldest` slot of a set before its first miss.
const NIL: u32 = u32::MAX;

/// One slot of a tag store: a line, its links in its set's LRU ring, and
/// its fill. A zero stamp marks a slot that has never held a line.
#[derive(Debug, Clone, Copy)]
struct LruSlot {
    line: u64,
    /// Stamp of the line's last access.
    stamp: u64,
    /// Completion cycle of the fill that brought the line in, or 0 once a
    /// hit at or after that cycle has consumed it.
    fill: u64,
    older: u32,
    newer: u32,
}

/// What a tag-store lookup found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lookup {
    /// Resident, and its fill has completed.
    Hit,
    /// Resident, but its fill is still in flight until this cycle.
    Merge(u64),
    /// Not resident: allocated into this slot, whose fill the caller
    /// records with [`TagStore::set_fill`].
    Miss(u32),
}

/// LRU tag store of `sets × ways` slots: the paper's fully associative L1
/// is one set, its 16-way L2 many. A set's first miss appends its `ways`
/// slots as a ring ordered oldest to newest (empty slots oldest), so
/// untouched sets cost no slot memory, and a line→slot index finds a
/// line in one hash lookup. The oldest slot is the victim, so ring order
/// is stamp order. Each slot carries its line's fill completion (the MSHR
/// merge decision), so eviction drops it and pending state is bounded by
/// capacity.
#[derive(Debug)]
struct TagStore {
    ways: usize,
    slots: Vec<LruSlot>,
    /// line -> index into `slots`
    index: FastMap<u64, u32>,
    /// Each set's oldest slot (its `older` link is the newest), or [`NIL`].
    oldest: Vec<u32>,
    stamp: u64,
}

impl TagStore {
    /// # Panics
    ///
    /// Panics on zero sets or ways (`GpuConfig::validate` rejects caches
    /// smaller than one line or one L2 set).
    fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "a cache needs a set and a way");
        TagStore {
            ways,
            slots: Vec::new(),
            index: FastMap::default(),
            oldest: vec![NIL; sets],
            stamp: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) % self.oldest.len()
    }

    /// Looks `line` up at cycle `now`, making it the newest of its set. A
    /// resident line whose fill completes after `now` merges into it; one
    /// whose fill is done hits and consumes the fill, so a lookup issued
    /// later at an earlier `now` (L2 lookups arrive from SMs out of time
    /// order) also hits. A miss allocates the line (allocate-on-miss).
    fn lookup(&mut self, line: u64, now: u64) -> Lookup {
        self.stamp += 1;
        let set = self.set_of(line);
        let Some(&slot) = self.index.get(&line) else {
            return Lookup::Miss(self.allocate(set, line, self.stamp));
        };
        let s = &mut self.slots[slot as usize];
        s.stamp = self.stamp;
        let found = if s.fill > now {
            Lookup::Merge(s.fill)
        } else {
            s.fill = 0;
            Lookup::Hit
        };
        self.make_newest(set, slot);
        found
    }

    /// Records the completion cycle of the fill a miss started.
    fn set_fill(&mut self, slot: u32, fill: u64) {
        self.slots[slot as usize].fill = fill;
    }

    /// Puts `line` into its set's oldest slot (a first miss appends the
    /// ring), evicting its line, and turns the ring to make it the newest.
    fn allocate(&mut self, set: usize, line: u64, stamp: u64) -> u32 {
        if self.oldest[set] == NIL {
            let (first, w) = (self.slots.len() as u32, self.ways as u32);
            self.slots.extend((0..w).map(|k| LruSlot {
                line: 0,
                stamp: 0,
                fill: 0,
                older: first + (k + w - 1) % w,
                newer: first + (k + 1) % w,
            }));
            self.oldest[set] = first;
        }
        let slot = self.oldest[set];
        let s = &mut self.slots[slot as usize];
        if s.stamp != 0 {
            self.index.remove(&s.line);
        }
        (s.line, s.stamp, s.fill) = (line, stamp, 0);
        self.oldest[set] = s.newer;
        self.index.insert(line, slot);
        slot
    }

    fn make_newest(&mut self, set: usize, slot: u32) {
        let oldest = self.oldest[set];
        let LruSlot { older, newer, .. } = self.slots[slot as usize];
        if slot == oldest {
            self.oldest[set] = newer;
        } else if newer != oldest {
            self.slots[older as usize].newer = newer;
            self.slots[newer as usize].older = older;
            let newest = self.slots[oldest as usize].older;
            self.slots[newest as usize].newer = slot;
            self.slots[oldest as usize].older = slot;
            let s = &mut self.slots[slot as usize];
            s.older = newest;
            s.newer = oldest;
        }
    }
}

/// An MSHR file approximated as a bounded set of in-flight miss completion
/// times: when full, a new miss must wait for the earliest one to retire.
#[derive(Debug)]
struct MshrFile {
    capacity: usize,
    /// Min-heap (via Reverse) of completion cycles.
    inflight: BinaryHeap<std::cmp::Reverse<u64>>,
}

impl MshrFile {
    fn new(capacity: usize) -> Self {
        MshrFile {
            capacity,
            inflight: BinaryHeap::new(),
        }
    }

    /// Earliest cycle at which a new miss can allocate an entry, given it
    /// wants to start at `now`. Retires already-completed entries.
    fn allocate(&mut self, now: u64) -> u64 {
        while let Some(&std::cmp::Reverse(t)) = self.inflight.peek() {
            if t <= now {
                self.inflight.pop();
            } else {
                break;
            }
        }
        if self.inflight.len() < self.capacity {
            now
        } else {
            let std::cmp::Reverse(t) = self.inflight.pop().expect("full heap");
            t.max(now)
        }
    }

    fn record(&mut self, completion: u64) {
        self.inflight.push(std::cmp::Reverse(completion));
    }
}

/// One SM's private L1: tag store, MSHRs and port.
#[derive(Debug)]
struct L1 {
    cache: TagStore,
    mshr: MshrFile,
    port_busy: u64,
}

/// The timing model: per-SM L1s, a shared L2, and channelled DRAM.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    perfect: bool,
    l1: Vec<L1>,
    l2: TagStore,
    l2_mshr: MshrFile,
    dram_channel_busy: Vec<f64>,
    trace: TraceHandle,
    /// Monotone id shared by memory and DRAM trace spans.
    next_req_id: u64,
    /// Statistics.
    pub l1_stats: CacheStats,
    /// L2 statistics.
    pub l2_stats: CacheStats,
    /// DRAM statistics.
    pub dram_stats: DramStats,
}

impl MemorySystem {
    /// Creates the hierarchy for `num_sms` SMs.
    pub fn new(cfg: &MemConfig, num_sms: usize, perfect: bool) -> Self {
        MemorySystem {
            cfg: cfg.clone(),
            perfect,
            l1: (0..num_sms)
                .map(|_| L1 {
                    cache: TagStore::new(1, cfg.l1_bytes / cfg.line_size),
                    mshr: MshrFile::new(cfg.l1_mshrs),
                    port_busy: 0,
                })
                .collect(),
            l2: TagStore::new(cfg.l2_bytes / cfg.line_size / cfg.l2_ways, cfg.l2_ways),
            l2_mshr: MshrFile::new(cfg.l2_mshrs),
            dram_channel_busy: vec![0.0; cfg.dram_channels],
            trace: TraceHandle::default(),
            next_req_id: 0,
            l1_stats: CacheStats::default(),
            l2_stats: CacheStats::default(),
            dram_stats: DramStats::default(),
        }
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> usize {
        self.cfg.line_size
    }

    /// Installs a trace handle; request-lifecycle spans are emitted on
    /// [`Track::Mem`] (per requesting SM) and [`Track::Dram`] (per
    /// channel) from now on.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Emits one async request span, allocating a fresh id.
    fn trace_req(&mut self, track: Track, name: &'static str, start: u64, end: u64, bytes: u32) {
        if self.trace.enabled() {
            let id = self.next_req_id;
            self.next_req_id += 1;
            self.trace
                .async_span(track, name, id, start, end, u64::from(bytes));
        }
    }

    /// Maps a byte address to its cache line index.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.cfg.line_size as u64
    }

    /// Issues a read of `bytes` at `addr` from SM `sm` at cycle `now`;
    /// returns the completion cycle. One call = one coalesced transaction
    /// (the caller is responsible for coalescing lanes to line granularity).
    pub fn read(&mut self, sm: usize, addr: u64, bytes: u32, now: u64) -> u64 {
        self.dram_stats.bytes_requested += bytes as u64;
        if self.perfect {
            return now + 1;
        }
        let line = self.line_of(addr);
        // L1 port: one transaction per cycle.
        let t0 = self.l1[sm].port_busy.max(now) + 1;
        self.l1[sm].port_busy = t0;
        let found = self.l1[sm].cache.lookup(line, t0);
        self.l1_stats.count(found);
        let (name, t) = match found {
            Lookup::Hit => ("read_hit", t0 + self.cfg.l1_latency),
            // A line still being filled counts as a miss-merge, not a hit.
            Lookup::Merge(fill) => ("read_merge", fill),
            Lookup::Miss(slot) => {
                // Allocate an L1 MSHR (may push the start time back when full).
                let t1 = self.l1[sm].mshr.allocate(t0);
                let fill = self.l2_lookup(line, t1 + self.cfg.l1_latency);
                self.l1[sm].mshr.record(fill);
                self.l1[sm].cache.set_fill(slot, fill);
                ("read_miss", fill)
            }
        };
        self.trace_req(Track::Mem(sm as u32), name, now, t, bytes);
        t
    }

    /// Issues a write of `bytes` at `addr` (write-through, no-allocate).
    /// Returns the completion cycle; callers typically do not wait on it.
    pub fn write(&mut self, sm: usize, addr: u64, bytes: u32, now: u64) -> u64 {
        if self.perfect {
            return now + 1;
        }
        let t0 = self.l1[sm].port_busy.max(now) + 1;
        self.l1[sm].port_busy = t0;
        // Write-through: consume DRAM bandwidth for the written bytes.
        let t = self.dram_transfer(addr, bytes, t0 + self.cfg.l2_latency, false);
        self.dram_stats.bytes_written += bytes as u64;
        self.trace_req(Track::Mem(sm as u32), "write", now, t, bytes);
        t
    }

    fn dram_transfer(&mut self, addr: u64, bytes: u32, now: u64, is_fill: bool) -> u64 {
        let channel = (self.line_of(addr) as usize) % self.cfg.dram_channels;
        let service = bytes as f64 / self.cfg.dram_bytes_per_cycle_per_channel;
        let start = self.dram_channel_busy[channel].max(now as f64);
        let end = start + service;
        self.dram_channel_busy[channel] = end;
        self.dram_stats.busy_channel_cycles += service;
        self.dram_stats.transactions += 1;
        if is_fill {
            self.dram_stats.bytes_read += bytes as u64;
        }
        let done = end as u64 + if is_fill { self.cfg.dram_latency } else { 0 };
        let name = if is_fill { "dram_fill" } else { "dram_write" };
        self.trace_req(Track::Dram(channel as u32), name, now, done, bytes);
        done
    }
}

// The real L2 path: separated so `read` stays readable.
impl MemorySystem {
    fn l2_lookup(&mut self, line: u64, now: u64) -> u64 {
        let found = self.l2.lookup(line, now);
        self.l2_stats.count(found);
        let slot = match found {
            Lookup::Hit => return now + self.cfg.l2_latency,
            Lookup::Merge(fill) => return fill,
            Lookup::Miss(slot) => slot,
        };
        let t = self.l2_mshr.allocate(now);
        let addr = line * self.cfg.line_size as u64;
        let fill = self.dram_transfer(
            addr,
            self.cfg.line_size as u32,
            t + self.cfg.l2_latency,
            true,
        );
        self.l2_mshr.record(fill);
        self.l2.set_fill(slot, fill);
        fill
    }
}

// Snapshot support. Heaps are exported as sorted vectors (pop order is by
// value, so heap-internal layout is not state). A tag store's `sets` lists
// each set's lines as (stamp, line) pairs, oldest first: its ring walked
// from the old end. `fills` lists the unconsumed fills as (line,
// completion) pairs sorted by line, so equal states export equal bags.
impl TagStore {
    fn export_state(&self) -> StateBag {
        let sets: Vec<Vec<(u64, u64)>> = (0..self.oldest.len())
            .map(|set| {
                // A set without a ring (`NIL`) stops at once.
                let mut at = self.oldest[set];
                let ring = (0..self.ways).map_while(|_| {
                    let s = *self.slots.get(at as usize)?;
                    at = s.newer;
                    Some((s.stamp, s.line))
                });
                ring.filter(|&(stamp, _)| stamp != 0).collect()
            })
            .collect();
        let mut fills: Vec<(u64, u64)> = self
            .slots
            .iter()
            .filter(|s| s.fill != 0)
            .map(|s| (s.line, s.fill))
            .collect();
        fills.sort_unstable();
        let mut bag = StateBag::new();
        bag.put("stamp", self.stamp.save());
        bag.put("sets", sets.save());
        bag.put("fills", fills.save());
        bag
    }

    /// Rebuilds the store from its export, rejecting lines in the wrong
    /// set, overfull sets, duplicate lines, stamps out of order or above
    /// the store's counter, and fills of lines that are not resident.
    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let mut sets = vec![Vec::<(u64, u64)>::new(); self.oldest.len()];
        load_each(sets.iter_mut(), bag.entry("sets")?, "sets")?;
        let mut fills: Vec<(u64, u64)> = Vec::new();
        fills.load(bag.entry("fills")?, "fills")?;
        *self = TagStore::new(sets.len(), self.ways);
        self.stamp.load(bag.entry("stamp")?, "stamp")?;
        for (set, order) in sets.iter().enumerate() {
            let mut last = 0;
            for (way, &(stamp, line)) in order.iter().enumerate() {
                if way == self.ways
                    || !(last + 1..=self.stamp).contains(&stamp)
                    || self.set_of(line) != set
                    || self.index.contains_key(&line)
                {
                    return Err(BagError::Mismatch(format!(
                        "line {line} at stamp {stamp} does not fit set {set} of {} ways",
                        self.ways
                    )));
                }
                last = stamp;
                self.allocate(set, line, stamp);
            }
        }
        for &(line, fill) in &fills {
            let &slot = self.index.get(&line).ok_or_else(|| {
                BagError::Mismatch(format!("fill of line {line}, which is not resident"))
            })?;
            self.set_fill(slot, fill);
        }
        Ok(())
    }
}

impl Snap for MshrFile {
    fn save(&self) -> SnapValue {
        let mut v: Vec<u64> = self.inflight.iter().map(|r| r.0).collect();
        v.sort_unstable();
        v.save()
    }

    fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
        let mut stamps: Vec<u64> = Vec::new();
        stamps.load(v, name)?;
        self.inflight = stamps.into_iter().map(std::cmp::Reverse).collect();
        Ok(())
    }
}

impl L1 {
    crate::snap_fields! {
        fn export_state / import_state;
        cache,
        mshr,
        port_busy,
    }
}

crate::snap_state!(TagStore, L1, GlobalMemory, MemorySystem);

impl MemorySystem {
    crate::snap_fields! {
        pub fn export_state / import_state;
        #[host] l1,
        l2,
        l2_mshr,
        #[host] dram_channel_busy,
        next_req_id,
        l1_stats,
        l2_stats,
        dram_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::snapshot::save_each;

    fn mem() -> MemorySystem {
        let cfg = GpuConfig::vulkan_sim_default();
        MemorySystem::new(&cfg.mem, 2, false)
    }

    #[test]
    fn global_memory_alloc_is_aligned_and_disjoint() {
        let mut m = GlobalMemory::new(1 << 16);
        let a = m.alloc(100, 64);
        let b = m.alloc(100, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn global_memory_oom_panics() {
        let mut m = GlobalMemory::new(1024);
        let _ = m.alloc(4096, 64);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn global_memory_overflowing_size_reports_exhaustion() {
        // `base + size` would wrap; checked arithmetic must turn that into
        // the exhaustion panic, not an aliased allocation (release builds
        // would otherwise wrap silently).
        let mut m = GlobalMemory::new(1024);
        let _ = m.alloc(usize::MAX - 16, 64);
    }

    #[test]
    #[should_panic(expected = "simulated GPU OOB: read 4 B")]
    fn global_memory_read_oob_reports_context() {
        let m = GlobalMemory::new(1024);
        let _ = m.read_u32(1022); // straddles the end
    }

    #[test]
    #[should_panic(expected = "simulated GPU OOB: write 4 B")]
    fn global_memory_write_oob_reports_context() {
        let mut m = GlobalMemory::new(1024);
        m.write_u32(u64::MAX - 2, 7); // end-of-range would overflow usize
    }

    #[test]
    #[should_panic(expected = "simulated GPU OOB: read 16 B")]
    fn global_memory_read_bytes_oob_reports_context() {
        let m = GlobalMemory::new(64);
        let _ = m.read_bytes(60, 16);
    }

    #[test]
    #[should_panic(expected = "simulated GPU OOB: write 8 B")]
    fn global_memory_write_bytes_oob_reports_context() {
        let mut m = GlobalMemory::new(64);
        m.write_bytes(60, &[0u8; 8]);
    }

    #[test]
    fn first_read_misses_second_hits() {
        let mut m = mem();
        let t1 = m.read(0, 0x1000, 32, 0);
        assert!(t1 > 200, "cold miss must reach DRAM (got {t1})");
        assert_eq!(m.l1_stats.misses, 1);
        // Read again after the fill completes: L1 hit.
        let t2 = m.read(0, 0x1000, 32, t1 + 1);
        assert_eq!(m.l1_stats.hits, 1);
        assert!(
            t2 - (t1 + 1) <= 1 + 20,
            "hit should take ~L1 latency (got {})",
            t2 - t1 - 1
        );
    }

    #[test]
    fn concurrent_same_line_merges() {
        let mut m = mem();
        let t1 = m.read(0, 0x2000, 32, 0);
        let t2 = m.read(0, 0x2010, 32, 0); // same 128B line, while in flight
        assert_eq!(t2, t1, "in-flight fill must merge");
        assert_eq!(m.l1_stats.mshr_merges, 1);
    }

    #[test]
    fn l2_shared_across_sms() {
        let mut m = mem();
        let t1 = m.read(0, 0x3000, 32, 0);
        // Different SM (cold L1) but after L2 was filled: much faster.
        let t2_start = t1 + 1;
        let t2 = m.read(1, 0x3000, 32, t2_start);
        assert!(m.l2_stats.hits >= 1);
        assert!(
            t2 - t2_start < t1,
            "L2 hit path ({}) should beat the DRAM path ({t1})",
            t2 - t2_start
        );
    }

    #[test]
    fn bandwidth_saturation_accumulates() {
        let mut m = mem();
        // Stream many distinct lines at the same cycle: channels saturate and
        // completion times stretch out.
        let mut last = 0;
        for i in 0..512u64 {
            last = last.max(m.read(0, i * 128 + (i % 2) * (1 << 20), 128, 0));
        }
        assert!(m.dram_stats.busy_channel_cycles > 0.0);
        let serial_min =
            512.0 * 128.0 / (m.cfg.dram_channels as f64 * m.cfg.dram_bytes_per_cycle_per_channel);
        assert!(
            (last as f64) > serial_min,
            "completion {last} must exceed pure-bandwidth bound {serial_min}"
        );
    }

    #[test]
    fn mshr_limit_delays_excess_misses() {
        let cfg = GpuConfig::vulkan_sim_default();
        let mut few = MemorySystem::new(
            &MemConfig {
                l1_mshrs: 2,
                ..cfg.mem.clone()
            },
            1,
            false,
        );
        let mut many = MemorySystem::new(
            &MemConfig {
                l1_mshrs: 64,
                ..cfg.mem.clone()
            },
            1,
            false,
        );
        let mut worst_few = 0;
        let mut worst_many = 0;
        for i in 0..16u64 {
            // Distinct lines far apart.
            worst_few = worst_few.max(few.read(0, i * 4096, 32, 0));
            worst_many = worst_many.max(many.read(0, i * 4096, 32, 0));
        }
        assert!(
            worst_few > worst_many,
            "2 MSHRs ({worst_few}) must serialise worse than 64 ({worst_many})"
        );
    }

    #[test]
    fn perfect_memory_is_one_cycle() {
        let cfg = GpuConfig::vulkan_sim_default();
        let mut m = MemorySystem::new(&cfg.mem, 1, true);
        assert_eq!(m.read(0, 0x1000, 32, 10), 11);
        assert_eq!(m.write(0, 0x1000, 32, 10), 11);
    }

    #[test]
    fn snapshot_roundtrip_preserves_timing_behavior() {
        // Drive two identical hierarchies to the same state; snapshot one,
        // restore onto a fresh hierarchy, and require identical completion
        // times for an identical access sequence afterwards.
        let drive = |m: &mut MemorySystem| {
            for i in 0..64u64 {
                m.read(0, i * 96, 32, i);
                m.read(1, i * 160 + (1 << 18), 32, i + 3);
            }
            m.write(0, 0x8000, 64, 70);
        };
        let mut a = mem();
        drive(&mut a);
        let mut b = mem();
        b.import_state(&a.export_state()).unwrap();
        assert_eq!(a.export_state(), b.export_state(), "exact state copy");
        let tail: Vec<u64> = (0..32u64)
            .map(|i| a.read(0, i * 96, 32, 10_000 + i))
            .collect();
        let tail_b: Vec<u64> = (0..32u64)
            .map(|i| b.read(0, i * 96, 32, 10_000 + i))
            .collect();
        assert_eq!(
            tail, tail_b,
            "restored hierarchy times accesses identically"
        );
        assert_eq!(a.l1_stats, b.l1_stats);
        assert_eq!(a.dram_stats, b.dram_stats);
    }

    #[test]
    fn snapshot_rejects_wrong_shape() {
        let a = mem();
        let cfg = GpuConfig::vulkan_sim_default();
        let mut other = MemorySystem::new(&cfg.mem, 4, false); // 4 SMs, not 2
        assert!(matches!(
            other.import_state(&a.export_state()),
            Err(BagError::Mismatch(_))
        ));
    }

    #[test]
    fn global_memory_snapshot_elides_zero_tail() {
        let mut m = GlobalMemory::new(1 << 16);
        let buf = m.alloc(128, 64);
        m.write_u32(buf, 0xdead_beef);
        let bag = m.export_state();
        let image = bag.get("image").unwrap().as_bytes("image").unwrap();
        assert!(image.len() < 1 << 12, "tail elided");
        let mut back = GlobalMemory::new(1 << 16);
        back.write_u32((1 << 16) - 4, 7); // stale host bytes past the image
        back.import_state(&bag).unwrap();
        assert_eq!(back.read_u32(buf), 0xdead_beef);
        assert_eq!(back.read_u32((1 << 16) - 4), 0, "zero tail restored");
        let next = back.alloc(16, 16);
        assert_eq!(next, m.alloc(16, 16), "bump allocator position restored");
    }

    #[test]
    fn global_memory_rejects_hostile_sizes_before_allocating() {
        let mut m = GlobalMemory::new(1 << 12);
        m.alloc(64, 64);
        let good = m.export_state();
        let with = |name: &str, v: u64| {
            let mut bag = StateBag::new();
            for (n, val) in good.entries() {
                let val = if n == name {
                    SnapValue::U64(v)
                } else {
                    val.clone()
                };
                bag.put(n, val);
            }
            bag
        };
        let mut host = GlobalMemory::new(1 << 12);
        for bag in [
            with("capacity", 1 << 60),
            with("capacity", 1 << 13),
            with("next_free", (1 << 12) + 1),
        ] {
            assert!(matches!(
                host.import_state(&bag),
                Err(BagError::Mismatch(_))
            ));
        }
        assert_eq!(host.capacity(), 1 << 12, "host untouched");
        host.import_state(&good).unwrap();
    }

    /// The map-based L1 the tag store replaced: a line→stamp map plus a
    /// stamp→line ordered map, evicting the smallest stamp.
    struct MapModelL1 {
        capacity_lines: usize,
        lines: std::collections::HashMap<u64, u64>,
        order: std::collections::BTreeMap<u64, u64>,
        stamp: u64,
    }

    /// The set-associative L2 the tag store replaced.
    struct SetAssocCache {
        sets: Vec<Vec<(u64, u64)>>, // (line, lru stamp)
        ways: usize,
        stamp: u64,
    }

    /// The tag arrays of the reference models.
    trait RefTags {
        /// Returns `true` on hit; on miss inserts the line, evicting LRU.
        fn access(&mut self, line: u64) -> bool;
        /// Each set's `(stamp, line)` pairs, oldest first.
        fn order(&self) -> Vec<Vec<(u64, u64)>>;
        fn stamp(&self) -> u64;
    }

    impl RefTags for MapModelL1 {
        fn access(&mut self, line: u64) -> bool {
            self.stamp += 1;
            if let Some(old) = self.lines.insert(line, self.stamp) {
                self.order.remove(&old);
                self.order.insert(self.stamp, line);
                return true;
            }
            self.order.insert(self.stamp, line);
            if self.lines.len() > self.capacity_lines {
                let (&oldest, &victim) = self.order.iter().next().expect("non-empty");
                self.order.remove(&oldest);
                self.lines.remove(&victim);
            }
            false
        }

        fn order(&self) -> Vec<Vec<(u64, u64)>> {
            vec![self.order.iter().map(|(&s, &l)| (s, l)).collect()]
        }

        fn stamp(&self) -> u64 {
            self.stamp
        }
    }

    impl RefTags for SetAssocCache {
        fn access(&mut self, line: u64) -> bool {
            self.stamp += 1;
            let idx = (line as usize) % self.sets.len();
            let stamp = self.stamp;
            let set = &mut self.sets[idx];
            if let Some(entry) = set.iter_mut().find(|(l, _)| *l == line) {
                entry.1 = stamp;
                return true;
            }
            if set.len() == self.ways {
                let lru = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, s))| *s)
                    .map(|(i, _)| i)
                    .expect("full set");
                set.swap_remove(lru);
            }
            set.push((line, stamp));
            false
        }

        fn order(&self) -> Vec<Vec<(u64, u64)>> {
            self.sets
                .iter()
                .map(|set| {
                    let mut order: Vec<(u64, u64)> = set.iter().map(|&(l, s)| (s, l)).collect();
                    order.sort_unstable();
                    order
                })
                .collect()
        }

        fn stamp(&self) -> u64 {
            self.stamp
        }
    }

    /// A reference tag array plus the side table of fills kept beside it
    /// before fills moved onto the slots: an entry leaves the table only
    /// when its line hits after the fill completed.
    struct RefCache<T> {
        tags: T,
        pending: std::collections::HashMap<u64, u64>,
    }

    impl<T: RefTags> RefCache<T> {
        fn new(tags: T) -> Self {
            RefCache {
                tags,
                pending: Default::default(),
            }
        }

        /// The side-table merge decision; `None` is a miss whose fill
        /// completes at `fill`.
        fn lookup(&mut self, line: u64, now: u64, fill: u64) -> Option<Lookup> {
            if !self.tags.access(line) {
                self.pending.insert(line, fill);
                return None;
            }
            if let Some(&f) = self.pending.get(&line) {
                if f > now {
                    return Some(Lookup::Merge(f));
                }
                self.pending.remove(&line);
            }
            Some(Lookup::Hit)
        }

        /// The tag store's layout. Side-table entries of evicted lines are
        /// left out: they are read only on a tag hit and overwritten by
        /// the miss that brings the line back, so they are dead.
        fn export_state(&self) -> StateBag {
            let sets = self.tags.order();
            let mut fills: Vec<(u64, u64)> = sets
                .iter()
                .flatten()
                .filter_map(|&(_, line)| self.pending.get(&line).map(|&f| (line, f)))
                .collect();
            fills.sort_unstable();
            let mut bag = StateBag::new();
            bag.put("stamp", self.tags.stamp().save());
            bag.put("sets", sets.save());
            bag.put("fills", fills.save());
            bag
        }
    }

    /// Drives `store` and `model` through one hit / merge / miss stream
    /// over a working set of `lines` with a hot subset, issuing each
    /// lookup up to `jitter` cycles before the running clock, and
    /// requires the same decisions and the same exported state.
    fn differential(
        mut store: TagStore,
        mut model: RefCache<impl RefTags>,
        lines: u64,
        jitter: u64,
    ) {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let (mut clock, mut seen) = (0u64, [0usize; 3]);
        let mut step = |store: &mut TagStore, model: &mut RefCache<_>, line: u64, x: u64| {
            clock += x % 4;
            let now = clock.saturating_sub((x >> 20) % (jitter + 1));
            let fill = now + 1 + (x >> 32) % 200;
            let got = match store.lookup(line, now) {
                Lookup::Miss(slot) => {
                    store.set_fill(slot, fill);
                    None
                }
                found => Some(found),
            };
            assert_eq!(got, model.lookup(line, now, fill), "line {line} at {now}");
            got
        };
        for i in 0..120_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = if x.is_multiple_of(2) {
                x % lines
            } else {
                (x >> 8) % (lines / 4)
            };
            seen[match step(&mut store, &mut model, line, x) {
                Some(Lookup::Hit) => 0,
                Some(_) => 1,
                None => 2,
            }] += 1;
            if i % 997 == 0 {
                assert_eq!(
                    store.export_state(),
                    model.export_state(),
                    "after access {i}"
                );
            }
        }
        assert!(
            seen.iter().all(|&n| n > 10_000),
            "hits, merges, misses: {seen:?}"
        );
        assert_eq!(store.export_state(), model.export_state());
        // An imported store resumes with the same victims and merges.
        let mut back = TagStore::new(store.oldest.len(), store.ways);
        back.import_state(&store.export_state()).unwrap();
        for line in (0..2 * lines).rev() {
            step(
                &mut back,
                &mut model,
                line,
                line.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
        }
        assert_eq!(back.export_state(), model.export_state());
    }

    #[test]
    fn l1_slot_list_matches_map_model() {
        // Fully associative, 16 lines against a working set of 40: the
        // stream mixes hits, merges, cold misses and evictions of every
        // age, in time order as one SM's L1 sees it.
        let l1 = MapModelL1 {
            capacity_lines: 16,
            lines: Default::default(),
            order: Default::default(),
            stamp: 0,
        };
        differential(TagStore::new(1, 16), RefCache::new(l1), 40, 0);
        // 8 sets of 4 ways against 80 lines, with lookups arriving up to
        // 100 cycles out of time order as the shared L2 sees them: a fill
        // left on its slot after a completed hit would turn a later-issued
        // but earlier-timed hit into a false merge.
        let l2 = SetAssocCache {
            sets: vec![Vec::new(); 8],
            ways: 4,
            stamp: 0,
        };
        differential(TagStore::new(8, 4), RefCache::new(l2), 80, 100);
    }

    #[test]
    fn tag_store_import_rejects_malformed_state() {
        // 2 sets of 2 ways: even lines in set 0, odd lines in set 1.
        let mut store = TagStore::new(2, 2);
        let bag = |sets: &[Vec<(u64, u64)>], fills: Vec<(u64, u64)>| {
            let mut bag = StateBag::new();
            bag.put("stamp", 9u64.save());
            bag.put("sets", save_each(sets));
            bag.put("fills", fills.save());
            bag
        };
        for bad in [
            bag(&[vec![(1, 11)], vec![]], vec![]), // line in the wrong set
            bag(&[vec![(1, 10), (2, 12), (3, 14)], vec![]], vec![]), // more lines than ways
            bag(&[vec![(1, 10), (2, 10)], vec![]], vec![]), // one line twice
            bag(&[vec![(2, 10), (1, 12)], vec![]], vec![]), // not oldest first
            bag(&[vec![(1, 10), (10, 12)], vec![]], vec![]), // stamp above the counter
            bag(&[vec![(1, 10)], vec![]], vec![(12, 50)]), // fill of a line not resident
            bag(&[vec![]], vec![]),                // one set, not two
        ] {
            assert!(matches!(
                store.import_state(&bad),
                Err(BagError::Mismatch(_))
            ));
        }
        store
            .import_state(&bag(
                &[vec![(1, 10), (2, 12)], vec![(3, 11)]],
                vec![(12, 50)],
            ))
            .unwrap();
        assert_eq!(store.lookup(12, 49), Lookup::Merge(50), "fill restored");
        assert!(
            matches!(store.lookup(14, 0), Lookup::Miss(_)),
            "cold line misses"
        );
        assert!(
            matches!(store.lookup(10, 0), Lookup::Miss(_)),
            "line 10 was the victim"
        );
        assert_eq!(store.lookup(11, 0), Lookup::Hit, "set 1 untouched");
    }

    #[test]
    fn utilization_bounded() {
        let mut m = mem();
        for i in 0..100u64 {
            m.read(0, i * 128, 128, 0);
        }
        let u = m.dram_stats.utilization(10_000, 6);
        assert!(u > 0.0 && u <= 1.0);
    }
}
