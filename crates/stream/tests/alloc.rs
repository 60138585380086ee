//! Steady-state allocation check: once the engine is warm, a whole cycle
//! (data errors → synthesis → discrimination → syndrome commit → decode)
//! must perform **zero** heap allocations. A counting global allocator wraps
//! the system allocator; this file holds exactly one test so no parallel
//! test pollutes the counter.
//!
//! The counter is process-global, and the libtest harness occasionally
//! performs a stray allocation of its own during a probe window (observed at
//! a few-percent rate even before the engine existed in its current form).
//! Every probe therefore takes the **minimum over a few attempts**: harness
//! noise is transient, while a genuine leak on the engine's cycle path
//! allocates on *every* attempt and still fails the pin deterministically.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use herqles_core::Discriminator;
use herqles_stream::{
    train_mf_discriminator, AdaptiveMf, CycleConfig, CycleEngine, DriftEvent, EngineTelemetry,
    FaultPlan, PoolTelemetry, RecalConfig, ShardPool,
};
use herqles_telemetry::Registry;
use readout_sim::trace::IqPoint;
use readout_sim::ChipConfig;
use surface_code::syndrome::DetectionEvent;
use surface_code::{
    decode_block_exact, decode_block_with, DecodeScratch, RotatedSurfaceCode, SyndromeBlock,
};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Minimum allocation count of `f` over `attempts` runs (noise-robust probe).
fn min_allocs_over<F: FnMut()>(attempts: usize, mut f: F) -> u64 {
    (0..attempts)
        .map(|_| {
            let before = ALLOC_CALLS.load(Ordering::SeqCst);
            f();
            ALLOC_CALLS.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("at least one attempt")
}

#[test]
fn warm_engine_rounds_perform_zero_heap_allocations() {
    let chip = ChipConfig::two_qubit_test();
    let code = RotatedSurfaceCode::new(3);
    let disc = train_mf_discriminator(&chip, 8, 1234);
    // 20 rounds per block: every probed cycle runs 21 pipeline steps.
    let cfg = CycleConfig {
        rounds: 20,
        data_error_prob: 0.02,
        seed: 3,
    };

    // Whole warm cycles are pinned at a hard **zero**: with the decoder's
    // matching scratch owned by the engine (`DecodeScratch`, pre-sized at
    // construction), a steady-state `run_cycle` — every synthesis task and
    // consume step on the inline 1-thread pool, block write-out,
    // exact-matching decode — must not touch the heap at all. Two warm-up
    // cycles size every buffer (the cycle-wide batch is sized at
    // construction, and the event store is pre-reserved to its hard upper
    // bound, so later rounds cannot outgrow it).
    let mut serial = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
    let _ = serial.run_cycle();
    let _ = serial.run_cycle();
    let serial_cycle_allocs = min_allocs_over(3, || {
        let _ = serial.run_cycle();
    });
    assert_eq!(
        serial_cycle_allocs, 0,
        "warm whole serial cycles must not touch the heap"
    );

    // The single-precision engine carries the same guarantee: a warm
    // `CycleEngine<f32>` cycle (f32 synthesis → f32 fused GEMM → thresholds
    // → syndrome commit → decode) must not touch the heap either. Probed in
    // this same test because the counting allocator is process-global.
    let mut engine32 = CycleEngine::<f32, _>::new(cfg, &chip, &code, &disc);
    let _ = engine32.run_cycle();
    let _ = engine32.run_cycle();
    let f32_cycle_allocs = min_allocs_over(3, || {
        let _ = engine32.run_cycle();
    });
    assert_eq!(
        f32_cycle_allocs, 0,
        "warm whole f32 cycles must not touch the heap"
    );
    // The same f32 cycle through a trait object: `dyn Discriminator`
    // dispatches to the design's one batch path, allocation-free.
    let dyn_disc: &dyn Discriminator = &disc;
    let mut dyn_engine32 = CycleEngine::<f32, _>::new(cfg, &chip, &code, dyn_disc);
    let _ = dyn_engine32.run_cycle();
    let _ = dyn_engine32.run_cycle();
    let dyn_f32_cycle_allocs = min_allocs_over(3, || {
        let _ = dyn_engine32.run_cycle();
    });
    assert_eq!(
        dyn_f32_cycle_allocs, 0,
        "warm whole f32 cycles through a dyn Discriminator must not touch the heap"
    );

    // The pooled engine carries the invariant across the fan-out: job
    // dispatch publishes one borrowed fat pointer into pre-sized stage
    // counters, idle threads spin on atomics or park on a condvar, and
    // every task writes pre-sized rows; the counting allocator is
    // process-global, so worker-side allocations would be caught here too.
    // Two pool sizes cover both idle paths: 2 threads spin on any host with
    // at least 2 cores, while 3 threads exceed a 2-core host and park.
    let spinning_pool = ShardPool::new(2);
    let pool = ShardPool::new(3);
    for pool in [&spinning_pool, &pool] {
        let threads = pool.threads();
        // Deterministic pool warm-up: with dynamic scheduling a worker may
        // claim no task during the warm-up cycles and pay its one-time lazy
        // runtime initialization inside the probed window; warm_up forces
        // every thread through one full task first.
        pool.warm_up();
        let mut pooled = CycleEngine::<f64>::with_pool(cfg, &chip, &code, &disc, pool);
        let _ = pooled.run_cycle();
        let _ = pooled.run_cycle();
        let pooled_cycle_allocs = min_allocs_over(3, || {
            let _ = pooled.run_cycle();
        });
        assert_eq!(
            pooled_cycle_allocs, 0,
            "warm whole pooled cycles on {threads} threads must not touch the heap"
        );
    }

    // Active fault injection keeps the invariant: fault resolution writes a
    // pre-sized `RoundFaults` snapshot, the faulted synthesis branches work
    // in the same per-channel scratch, and the health monitor's round
    // observation runs through fixed buffers. The plan below holds every
    // fault kind at full strength for the entire probed window.
    let mut faulted = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
    faulted.set_fault_plan(FaultPlan::new(vec![
        DriftEvent::CentroidDrift {
            qubit: 0,
            start_round: 0,
            end_round: 0,
            delta: IqPoint::new(2.0, -1.5),
        },
        DriftEvent::SigmaScale {
            start_round: 0,
            end_round: 0,
            factor: 1.4,
        },
        DriftEvent::Leakage {
            qubit: 1,
            start_round: 0,
            end_round: 0,
            prob: 0.3,
            leak_ss: IqPoint::new(20.0, 20.0),
        },
    ]));
    let _ = faulted.run_cycle();
    let _ = faulted.run_cycle();
    let faulted_cycle_allocs = min_allocs_over(3, || {
        let _ = faulted.run_cycle();
    });
    assert_eq!(
        faulted_cycle_allocs, 0,
        "warm cycles under active fault injection must not touch the heap"
    );

    // The adaptive discriminator's hot path — generation-counted calibration
    // load, fused GEMM, margin computation, confident-window harvest into
    // the fixed ring — is allocation-free too (the *retrain* is the
    // control-plane exception and runs outside this probe).
    let adaptive = AdaptiveMf::from_mf(&disc, RecalConfig::default());
    let mut adaptive_engine = CycleEngine::<f64, _>::new(cfg, &chip, &code, &adaptive);
    let _ = adaptive_engine.run_cycle();
    let _ = adaptive_engine.run_cycle();
    let adaptive_cycle_allocs = min_allocs_over(3, || {
        let _ = adaptive_engine.run_cycle();
    });
    assert_eq!(
        adaptive_cycle_allocs, 0,
        "warm cycles through the adaptive discriminator must not touch the heap"
    );

    // Telemetry is enabled by default, so every probe above already ran with
    // histogram recording, counter bumps and flight-recorder span recording
    // inside the zero-allocation window. Make that explicit: the engines
    // really were recording.
    assert!(
        serial.telemetry().spans().recorded() > 0,
        "default-on span tracing must have recorded stage spans"
    );
    assert!(serial.stats().latency.cycle.max > 0);

    // Per-worker pool instrumentation rides inside the same invariant: with
    // a `PoolTelemetry` attached, every fan-out task records a worker-track
    // span plus two relaxed counter bumps, and warm pooled cycles must still
    // be allocation-free.
    let pool_telem = Arc::new(PoolTelemetry::new(pool.threads()));
    pool.set_telemetry(Some(Arc::clone(&pool_telem)));
    let mut instrumented = CycleEngine::<f64>::with_pool(cfg, &chip, &code, &disc, &pool);
    let _ = instrumented.run_cycle();
    let _ = instrumented.run_cycle();
    let instrumented_cycle_allocs = min_allocs_over(3, || {
        let _ = instrumented.run_cycle();
    });
    assert_eq!(
        instrumented_cycle_allocs, 0,
        "warm pooled cycles with pool instrumentation attached must not touch the heap"
    );
    assert!(
        pool_telem.total_tasks() > 0,
        "attached pool telemetry must have recorded fan-out tasks"
    );
    pool.set_telemetry(None);

    // The vectorized-synthesis contract must hold on **every** noise/GEMM
    // backend, not just whatever HERQLES_KERNEL resolved to above: the AVX2
    // bulk Gaussian path generates deviates in registers and must spill to
    // stack tails only, and the scalar path replays the historical
    // per-sample loop through the same pre-sized scratch. Force each
    // selectable backend in turn and re-probe whole warm cycles, serial and
    // pooled.
    {
        use herqles_num::kernel::{active_kernel_name, select_kernel, KernelBackend};
        let restore = KernelBackend::parse(active_kernel_name()).expect("active name parses");
        let mut backends = vec![KernelBackend::Scalar];
        if herqles_num::avx2_available() {
            backends.push(KernelBackend::Avx2);
        } else {
            eprintln!("alloc: AVX2 unavailable, pinning scalar backend only");
        }
        for backend in backends {
            select_kernel(backend).expect("backend known selectable");
            let mut serial_b = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
            let _ = serial_b.run_cycle();
            let _ = serial_b.run_cycle();
            let allocs = min_allocs_over(3, || {
                let _ = serial_b.run_cycle();
            });
            assert_eq!(
                allocs, 0,
                "warm serial cycles on the {backend:?} backend must not touch the heap"
            );
            let mut pooled_b = CycleEngine::<f64>::with_pool(cfg, &chip, &code, &disc, &pool);
            let _ = pooled_b.run_cycle();
            let _ = pooled_b.run_cycle();
            let allocs = min_allocs_over(3, || {
                let _ = pooled_b.run_cycle();
            });
            assert_eq!(
                allocs, 0,
                "warm pooled cycles on the {backend:?} backend must not touch the heap"
            );
        }
        select_kernel(restore).expect("restoring the dispatched backend");
    }

    // Registry-backed telemetry carries the same guarantee: registration is
    // control-plane (outside the probe), but warm cycles recording into
    // registered histograms/counters must stay heap-free, and so must a
    // stage-latency read.
    let registry = Registry::new();
    let mut registered = CycleEngine::<f64>::new(cfg, &chip, &code, &disc);
    registered.set_telemetry(EngineTelemetry::registered(
        &registry.scope(&[("engine", "alloc-pin")]),
    ));
    let _ = registered.run_cycle();
    let _ = registered.run_cycle();
    let registered_cycle_allocs = min_allocs_over(3, || {
        let _ = registered.run_cycle();
        let _ = registered.stats();
    });
    assert_eq!(
        registered_cycle_allocs, 0,
        "warm cycles with registry-backed telemetry must not touch the heap"
    );
    assert!(
        registry.snapshot().metrics.iter().any(|m| {
            m.name == "herqles_cycles_total"
                && matches!(m.value, herqles_telemetry::MetricValue::Counter(c) if c >= 3)
        }),
        "registered counters must have seen the probed cycles"
    );

    // Dense blocks under active faults route through the union-find decoder
    // (past `EXACT_DISPATCH_LIMIT`), whose scratch — parents, sizes,
    // half-edge support, frontier queues, peeling stacks, interaction-group
    // buffers and the exact matcher's fixed tables — is pre-sized by
    // `DecodeScratch::prewarmed` at engine construction. Warm cycles that
    // grow, peel, and refine real clusters must stay heap-free.
    let dense_cfg = CycleConfig {
        rounds: 20,
        data_error_prob: 0.06,
        seed: 17,
    };
    let mut dense = CycleEngine::<f64>::new(dense_cfg, &chip, &code, &disc);
    dense.set_fault_plan(FaultPlan::new(vec![DriftEvent::SigmaScale {
        start_round: 0,
        end_round: 0,
        factor: 1.5,
    }]));
    let _ = dense.run_cycle();
    let _ = dense.run_cycle();
    let mut dense_events = 0usize;
    let dense_cycle_allocs = min_allocs_over(3, || {
        dense_events = dense_events.max(dense.run_cycle().outcome.n_events);
    });
    assert!(
        dense_events > surface_code::EXACT_DISPATCH_LIMIT,
        "probe produced only {dense_events} events — union-find path not exercised"
    );
    assert_eq!(
        dense_cycle_allocs, 0,
        "warm union-find decodes of dense faulted blocks must not touch the heap"
    );

    // The largest interaction group the union-find refinement re-matches
    // exactly: 14 events on seven stabilizers in two consecutive rounds at
    // d = 5. Every pair lies within the interaction radius d + 1, so the
    // block (past `EXACT_DISPATCH_LIMIT`, hence union-find) is one group
    // and one 14-event blossom solve in the matcher's fixed tables.
    let code5 = RotatedSurfaceCode::new(5);
    let group_block = SyndromeBlock {
        events: (0..7)
            .flat_map(|stab| [0, 1].map(|round| DetectionEvent { stab, round }))
            .collect(),
        final_errors: vec![false; code5.n_data()],
        rounds: 5,
    };
    assert_eq!(
        group_block.events.len(),
        surface_code::uf::LOCAL_EXACT_LIMIT
    );
    let oracle = decode_block_exact(&code5, &group_block, &mut DecodeScratch::new());
    let mut group_scratch = DecodeScratch::prewarmed(&code5, 5);
    let _ = decode_block_with(&code5, &group_block, &mut group_scratch);
    let mut group_outcome = None;
    let group_allocs = min_allocs_over(3, || {
        group_outcome = Some(decode_block_with(&code5, &group_block, &mut group_scratch));
    });
    assert_eq!(
        group_allocs, 0,
        "warm decodes of a 14-event interaction group must not touch the heap"
    );
    assert_eq!(
        group_outcome,
        Some(oracle),
        "the group decodes to the oracle's answer"
    );

    // Sliding-window streaming decode rides inside the same invariant: every
    // warm round pushes events into the window, advances cluster growth, and
    // commits confined clusters behind the lag — all against the pre-sized
    // window scratch. Serial and pooled (where the window advance overlaps
    // later rounds' synthesis).
    let mut windowed = CycleEngine::<f64>::new(dense_cfg, &chip, &code, &disc);
    windowed.set_sliding_window(3);
    let _ = windowed.run_cycle();
    let _ = windowed.run_cycle();
    let windowed_cycle_allocs = min_allocs_over(3, || {
        let _ = windowed.run_cycle();
    });
    assert_eq!(
        windowed_cycle_allocs, 0,
        "warm sliding-window cycles must not touch the heap"
    );

    let mut windowed_pooled = CycleEngine::<f64>::with_pool(dense_cfg, &chip, &code, &disc, &pool);
    windowed_pooled.set_sliding_window(3);
    let _ = windowed_pooled.run_cycle();
    let _ = windowed_pooled.run_cycle();
    let windowed_pooled_allocs = min_allocs_over(3, || {
        let _ = windowed_pooled.run_cycle();
    });
    assert_eq!(
        windowed_pooled_allocs, 0,
        "warm pooled sliding-window cycles must not touch the heap"
    );

    // Async decode offload: a warm cycle that decodes the previous block
    // in its fan-out prelude (alongside the synthesis tasks) must be
    // allocation-free too. Serial and pooled.
    let mut offloaded = CycleEngine::<f64>::new(dense_cfg, &chip, &code, &disc);
    let mut offloaded_pooled = CycleEngine::<f64>::with_pool(dense_cfg, &chip, &code, &disc, &pool);
    for (engine, name) in [
        (&mut offloaded, "serial"),
        (&mut offloaded_pooled, "pooled"),
    ] {
        engine.set_async_decode(true);
        let _ = engine.run_cycle();
        let _ = engine.run_cycle();
        let allocs = min_allocs_over(3, || {
            let _ = engine.run_cycle();
        });
        assert_eq!(
            allocs, 0,
            "warm {name} async-offload cycles must not touch the heap"
        );
        let drained = engine.drain_async_decode().expect("final block pending");
        assert!(drained.n_events > 0);
    }
}
