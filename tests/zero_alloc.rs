//! Steady-state lookups allocate nothing — neither the batch path, which
//! owns its scratch, nor the `&self` single-shot path that snapshot
//! readers and shared workers take, which works in a per-thread one, nor
//! the flow cache in front of either, on a hit or on a miss. The pcap
//! reader feeding them allocates the chunk it hands over and nothing else.
//!
//! The counter is process-wide, so this file holds exactly one test: no
//! other test thread can allocate while it counts.

// The one `unsafe` in the workspace: a counting allocator cannot be
// written without implementing `GlobalAlloc`.
#![allow(unsafe_code)]
// Integration-test support code: a failed unwrap here IS the test failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spc::classbench::{
    FilterKind, PcapReader, PcapWriter, RuleSetGenerator, TraceGenerator, TraceSource,
};
use spc::engine::{build_engine, CachedEngine, EngineBuilder, PacketClassifier};
use spc::types::{Header, Ipv4};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method hands its arguments unchanged to `System` and
// returns what `System` returns, so `System`'s own `GlobalAlloc` contract
// carries over; the counter is a `Relaxed` statistic that guards no data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_lookups_do_not_allocate() {
    // ACL boxes are tens of combinations, FW boxes thousands: the wide
    // ones are what the walk's partial-key scratch has to hold.
    let mut beds: Vec<_> = [FilterKind::Acl, FilterKind::Fw]
        .into_iter()
        .map(|kind| {
            let rules = RuleSetGenerator::new(kind, 256).seed(7).generate();
            let trace = TraceGenerator::new()
                .seed(3)
                .match_fraction(0.8)
                .generate(&rules, 100);
            let engine = EngineBuilder::from_spec("configurable-bst")
                .unwrap()
                .build(&rules)
                .unwrap();
            let reader = EngineBuilder::from_spec("snapshot:inner=(configurable-bst)")
                .unwrap()
                .build_snapshot(&rules)
                .unwrap()
                .reader();
            (trace, engine, reader)
        })
        .collect();
    // The flow cache: a hot trace that always hits, and a flood of more
    // distinct flows (the hot ones under other source addresses) than
    // both layers hold together, so every round of it misses on what the
    // round before evicted — installs, evictions and chain relinks in a
    // table, a miss list and a rule-chain map that are all warm.
    let rules = RuleSetGenerator::new(FilterKind::Acl, 256)
        .seed(7)
        .generate();
    let traces = TraceGenerator::new().seed(5).match_fraction(0.8);
    let hot = traces.generate(&rules, 100);
    let flood: Vec<Header> = (0..20_480u32)
        .map(|i| {
            let h = hot[i as usize % hot.len()];
            Header {
                src_ip: Ipv4(h.src_ip.0 ^ (i / 100)),
                ..h
            }
        })
        .collect();
    let inner = build_engine("configurable-bst", &rules).unwrap();
    let mut cached = CachedEngine::new(inner, 8192, true, rules.rules());
    let cache_misses = |c: &CachedEngine| c.cache_stats().misses;
    let cache_hits = |c: &CachedEngine| c.cache_stats().hits;
    let mut out = Vec::new();

    let mut pass = || {
        for (trace, engine, reader) in &mut beds {
            let stats = engine.classify_batch(trace, &mut out);
            let hits = trace.iter().filter(|h| reader.classify(h).is_hit()).count();
            assert_eq!(stats.hits, hits as u64);
        }
        for batch in flood.chunks(4096) {
            let before = cache_misses(&cached);
            cached.classify_batch(batch, &mut out);
            let missed = cache_misses(&cached) - before;
            assert!(missed > 2048, "the flood must miss: {missed}");
        }
        cached.classify_batch(&hot, &mut out);
        let before = cache_hits(&cached);
        let stats = cached.classify_batch(&hot, &mut out);
        assert_eq!(cache_hits(&cached) - before, hot.len() as u64);
        let hits = hot.iter().filter(|h| cached.classify(h).is_hit()).count();
        assert_eq!(stats.hits, hits as u64);
    };
    // Warm-up: every scratch buffer grows to the longest list it will see.
    pass();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        // 200 batch + 200 single-shot lookups uncached; behind the cache
        // a 20 480-header flood, 200 batch and 100 single-shot lookups.
        pass();
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocated, 0, "allocations across 10 warm passes");

    // The pcap reader parses records where they lie in its window: a
    // warm `next_event` allocates the chunk it returns and nothing more,
    // whether the capture was adopted whole or is streamed (five window
    // refills inside the counted events).
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for h in &flood[..8192] {
        w.write_header(h).unwrap();
    }
    let capture = w.finish().unwrap();
    for reader in [
        PcapReader::from_bytes(capture.clone()),
        PcapReader::new(Box::new(std::io::Cursor::new(capture))),
    ] {
        let mut reader = reader.unwrap().with_chunk(256);
        reader.next_event().unwrap();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let mut pulls = 1; // the one that finds the capture at its end
        while reader.next_event().unwrap().is_some() {
            pulls += 1;
        }
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!((pulls, allocated), (32, 32), "one allocation per pull");
    }
}
