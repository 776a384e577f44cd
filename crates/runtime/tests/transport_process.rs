//! End-to-end transport tests: Conv workers as real OS processes (or raw
//! sockets) behind `AdcnnRuntime::launch_remote`. The first suite where
//! `kill -9` of an actual process — not an injected fault flag — is
//! recovered by the lifecycle manager.

use adcnn_core::fdsp::TileGrid;
use adcnn_core::lifecycle::LifecyclePolicy;
use adcnn_core::obs::{ObsEvent, RecordingSink, SinkHandle};
use adcnn_runtime::transport::{
    decode_welcome, encode_hello, read_frame, spawn_loopback_worker, write_frame, Endpoint,
    RemoteModelSpec, WorkerListener, TAG_HELLO, TAG_RESULT, TAG_TASK, TAG_WELCOME,
};
use adcnn_runtime::{AdcnnRuntime, RuntimeConfig, WorkerOptions};
use adcnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_adcnn-conv-worker");

fn spec() -> RemoteModelSpec {
    RemoteModelSpec::paper_default(6, 5, TileGrid::new(2, 2))
}

fn rand_image(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn([1, 3, 32, 32], 0.5, &mut rng)
}

fn bind_loopback() -> WorkerListener {
    WorkerListener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap()
}

fn spawn_worker_process(endpoint: &Endpoint) -> Child {
    Command::new(WORKER_BIN)
        .args(["--connect", &endpoint.to_string()])
        .stdin(Stdio::null())
        .spawn()
        .expect("spawn adcnn-conv-worker")
}

fn wait_for_live(rt: &AdcnnRuntime, want: &[bool], timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while rt.live_workers() != want {
        assert!(
            Instant::now() < deadline,
            "live_workers stuck at {:?}, want {want:?}",
            rt.live_workers()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The multi-process runtime must be indistinguishable from the in-process
/// one: same spec, same images, bit-identical outputs (no zero-fill on
/// either side means both assembled the same boundary map).
#[test]
fn multi_process_loopback_matches_in_process() {
    let listener = bind_loopback();
    let endpoint = listener.endpoint().clone();
    let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker_process(&endpoint)).collect();
    let mut remote = AdcnnRuntime::launch_remote(
        spec(),
        2,
        RuntimeConfig::default(),
        listener,
        Duration::from_secs(10),
    )
    .expect("workers must join");
    let mut local = AdcnnRuntime::launch(
        spec().build(),
        &[WorkerOptions::default(); 2],
        RuntimeConfig::default(),
    );
    for s in 0..3 {
        let x = rand_image(200 + s);
        let want = local.infer(&x);
        let got = remote.infer(&x);
        assert_eq!(want.zero_filled, 0);
        assert_eq!(got.zero_filled, 0, "received {:?}", got.received);
        assert_eq!(
            got.output.as_slice(),
            want.output.as_slice(),
            "remote output must be bit-identical to in-process"
        );
    }
    local.shutdown();
    remote.shutdown();
    for w in &mut workers {
        let status = w.wait().expect("worker wait");
        assert!(status.success(), "worker exited {status:?}");
    }
}

/// `kill -9` a worker process mid-stream: every image still completes with
/// `zero_filled == 0` (re-dispatch recovers the dead worker's tiles) and
/// well before the hard timeout; then a *new* process rejoins the slot as
/// a fresh worker and serves traffic again.
#[test]
fn kill_dash_nine_recovers_by_redispatch_then_rejoins() {
    let listener = bind_loopback();
    let endpoint = listener.endpoint().clone();
    let mut victim = spawn_worker_process(&endpoint);
    let mut peer = spawn_worker_process(&endpoint);
    // Record the structured stream too: the supervisor must narrate the
    // topology (NodeUp on join/rejoin, NodeDown on first death detection).
    let rec = std::sync::Arc::new(RecordingSink::new());
    let cfg = RuntimeConfig {
        policy: LifecyclePolicy { hard_timeout: 5.0, ..Default::default() },
        sink: SinkHandle::new(rec.clone()),
        ..Default::default()
    };
    let mut rt =
        AdcnnRuntime::launch_remote(spec(), 2, cfg, listener, Duration::from_secs(10)).unwrap();
    let mut local = AdcnnRuntime::launch(
        spec().build(),
        &[WorkerOptions::default(); 2],
        RuntimeConfig::default(),
    );

    // Warm-up: both workers serving.
    let out = rt.infer(&rand_image(300));
    assert_eq!(out.zero_filled, 0);

    // SIGKILL one real OS process. No flags, no cooperation: the reader
    // sees EOF, the supervisor marks the slot down, the lifecycle
    // re-dispatches. We don't know which slot each process took, so kill
    // `victim` and derive the slot from the supervision view.
    victim.kill().expect("kill -9 worker");
    victim.wait().expect("reap worker");
    let deadline = Instant::now() + Duration::from_secs(5);
    let dead_slot = loop {
        let live = rt.live_workers();
        if let Some(slot) = live.iter().position(|l| !l) {
            break slot;
        }
        assert!(Instant::now() < deadline, "worker death never detected");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(rt.speeds()[dead_slot], 0.0, "dead worker must be marked failed");

    // Mid-stream recovery: images keep completing, nothing zero-filled,
    // latency bounded far below the 5s hard timeout.
    for s in 0..4 {
        let x = rand_image(310 + s);
        let want = local.infer(&x);
        let got = rt.infer(&x);
        assert_eq!(got.zero_filled, 0, "tile lost to a kill -9 (received {:?})", got.received);
        assert!(
            got.latency < Duration::from_secs(5),
            "recovery took {:?}, the hard timeout",
            got.latency
        );
        assert_eq!(got.output.as_slice(), want.output.as_slice());
        assert_eq!(got.received[dead_slot], 0, "a dead process cannot deliver results");
    }

    // A fresh process takes over the slot: fresh join, not a resurrection
    // — the EWMA restarts at the fresh-join prior, not the dead
    // incarnation's last estimate.
    let mut replacement = spawn_worker_process(&endpoint);
    wait_for_live(&rt, &[true, true], Duration::from_secs(5));
    assert_eq!(rt.speeds()[dead_slot], 1.0, "rejoin must restart from the fresh-join prior");

    // The topology stream: both initial joins emitted NodeUp, the kill
    // emitted exactly one NodeDown for the victim's slot, and the
    // replacement emitted NodeUp for that slot afterwards.
    let topo: Vec<(String, u32)> = rec
        .events()
        .iter()
        .filter(|e| matches!(e, ObsEvent::NodeUp { .. } | ObsEvent::NodeDown { .. }))
        .map(|e| (e.kind().to_string(), e.worker().expect("topology events carry the node")))
        .collect();
    let slot = dead_slot as u32;
    assert_eq!(
        topo.iter().filter(|(k, n)| k == "node_down" && *n == slot).count(),
        1,
        "first-detection guard must emit exactly one NodeDown per death: {topo:?}"
    );
    let down = topo.iter().position(|(k, n)| k == "node_down" && *n == slot).unwrap();
    assert!(
        topo[..down].iter().filter(|(k, _)| k == "node_up").count() >= 2,
        "both initial joins must emit NodeUp before the kill: {topo:?}"
    );
    assert!(
        topo[down + 1..].iter().any(|(k, n)| k == "node_up" && *n == slot),
        "the rejoin must emit NodeUp after the slot's NodeDown: {topo:?}"
    );

    // Prove the rejoined slot really is allocatable: kill the survivor so
    // the replacement is the only live worker, and it must carry whole
    // images alone.
    peer.kill().expect("kill peer");
    peer.wait().expect("reap peer");
    let deadline = Instant::now() + Duration::from_secs(5);
    while rt.live_workers().iter().filter(|l| **l).count() != 1 {
        assert!(Instant::now() < deadline, "peer death never detected");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(rt.live_workers()[dead_slot], "the replacement slot must still be live");
    for s in 0..2 {
        let x = rand_image(320 + s);
        let want = local.infer(&x);
        let got = rt.infer(&x);
        assert_eq!(got.zero_filled, 0);
        assert_eq!(got.output.as_slice(), want.output.as_slice());
        assert!(got.received[dead_slot] > 0, "the rejoined worker never served a tile");
    }

    local.shutdown();
    rt.shutdown();
    replacement.wait().expect("replacement wait");
}

/// A worker that accepts tiles and never answers: its tiles are recovered
/// by re-dispatch (zero_filled == 0, nothing credited to it), its stale
/// results for an already-retired image are discarded at the demux, and
/// after it disconnects a reconnect joins fresh — the failed EWMA is
/// *not* resurrected.
#[test]
fn silent_worker_stale_results_and_reconnect_semantics() {
    let listener = bind_loopback();
    let endpoint = listener.endpoint().clone();
    let tcp_addr = match &endpoint {
        Endpoint::Tcp(addr) => addr.clone(),
        #[cfg(unix)]
        other => panic!("expected tcp endpoint, got {other}"),
    };
    // Slot A: a real loopback worker thread. Slot B: a hand-driven raw
    // socket so the test controls exactly when (and whether) it replies.
    let honest = spawn_loopback_worker(endpoint.clone());
    let mut manual = TcpStream::connect(tcp_addr.as_str()).unwrap();
    manual.set_nodelay(true).unwrap();
    // HELLO goes out before launch (the acceptor reads it once the cluster
    // starts); the WELCOME can only be read *after* launch_remote brings
    // the supervisors up.
    write_frame(&mut manual, TAG_HELLO, &encode_hello(0)).unwrap();

    let mut rt = AdcnnRuntime::launch_remote(
        spec(),
        2,
        RuntimeConfig::default(),
        listener,
        Duration::from_secs(10),
    )
    .unwrap();

    manual.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let (tag, body) = read_frame(&mut manual).unwrap().expect("welcome");
    assert_eq!(tag, TAG_WELCOME);
    let (manual_slot, welcomed_spec) = decode_welcome(&body).expect("decodable welcome");
    let manual_slot = manual_slot as usize;
    assert_eq!(welcomed_spec, spec(), "handshake must carry the launch spec");

    // One image. The manual worker swallows its tiles; the deadline fires
    // and every one of them is re-dispatched to the honest worker.
    let out = rt.infer(&rand_image(400));
    assert_eq!(out.zero_filled, 0, "re-dispatch must recover the silent worker's tiles");
    assert!(out.redispatched > 0, "nothing was re-dispatched?");
    assert_eq!(out.received[manual_slot], 0, "a silent worker can't be credited");
    let mut stolen = Vec::new();
    while let Ok(Some((TAG_TASK, body))) = read_frame(&mut manual) {
        stolen.push(body);
        if stolen.len() >= out.alloc[manual_slot] as usize {
            break;
        }
    }
    assert!(!stolen.is_empty(), "the silent worker was never allocated a tile");

    // Disconnect: positively-detected death, speed 0.
    drop(manual);
    let deadline = Instant::now() + Duration::from_secs(5);
    while rt.live_workers()[manual_slot] {
        assert!(Instant::now() < deadline, "disconnect never detected");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(rt.speeds()[manual_slot], 0.0);

    // Reconnect and immediately push results for the *retired* image's
    // tiles down the new connection. They must route through the
    // late/duplicate handling (the image is gone — discarded at the
    // demux), not double-count or corrupt a later image.
    let mut manual = TcpStream::connect(tcp_addr.as_str()).unwrap();
    manual.set_nodelay(true).unwrap();
    manual.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(&mut manual, TAG_HELLO, &encode_hello(0)).unwrap();
    let (tag, _) = read_frame(&mut manual).unwrap().expect("second welcome");
    assert_eq!(tag, TAG_WELCOME);
    wait_for_live(&rt, &[true, true], Duration::from_secs(5));
    assert_eq!(
        rt.speeds()[manual_slot],
        1.0,
        "reconnect is a fresh join: the failed EWMA must restart at the prior, not resurrect"
    );
    for body in &stolen {
        let task = adcnn_core::wire::TileTask::decode(body).expect("stolen task decodes");
        // The payload never reaches the suffix (its image is retired, so
        // the demux drops it), it only has to be wire-valid: a tiny
        // well-formed result keyed to the stolen tile.
        let q = adcnn_core::compress::Quantizer::new(4, 2.0);
        let compressed = adcnn_core::compress::compress(&[0.0f32; 4], q);
        let res = adcnn_core::wire::make_result_from_parts(
            task.key,
            [1, 1, 2, 2],
            4,
            &compressed.payload,
            q,
        );
        let frame = adcnn_runtime::transport::encode_result_body(&res, 1000, 100);
        write_frame(&mut manual, TAG_RESULT, &frame).unwrap();
    }
    // The speeds must not move: stale results for a retired image never
    // reach the statistics (RecordRate only fires at image completion,
    // and no image is in flight).
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(rt.speeds()[manual_slot], 1.0, "stale results resurrected the EWMA");

    // The runtime still works; the manual worker now answers nothing
    // again, so its allocation keeps flowing to the honest worker.
    let out = rt.infer(&rand_image(401));
    assert_eq!(out.zero_filled, 0);

    drop(manual);
    rt.shutdown();
    honest.join().unwrap().unwrap();
}

/// A worker that speaks the protocol but serves another model: every
/// `RESULT` is well formed — consistent `elems`, a payload that decodes —
/// and declares one channel too many. Regression: `Collector::ingest`
/// checked a result against its *own* shape only, so such a frame reached
/// `paste_spatial`, tripped its N/C assert and took the collector thread
/// (and every outstanding `wait()`) down. Now it is a corrupt result: the
/// tile stays open, the deadline re-dispatches it to the healthy worker,
/// and the image completes bit-equal to the in-process run.
#[test]
fn wrong_shape_results_are_corrupt_not_fatal() {
    let listener = bind_loopback();
    let endpoint = listener.endpoint().clone();
    let tcp_addr = match &endpoint {
        Endpoint::Tcp(addr) => addr.clone(),
        #[cfg(unix)]
        other => panic!("expected tcp endpoint, got {other}"),
    };
    let honest = spawn_loopback_worker(endpoint.clone());
    let impostor = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(tcp_addr.as_str()).unwrap();
        conn.set_nodelay(true).unwrap();
        write_frame(&mut conn, TAG_HELLO, &encode_hello(0)).unwrap();
        let (tag, body) = read_frame(&mut conn).unwrap().expect("welcome");
        assert_eq!(tag, TAG_WELCOME);
        let (slot, _) = decode_welcome(&body).expect("decodable welcome");
        // ShapesCNN's boundary tile is [1, 16, 8, 8].
        let shape = [1, 17, 8, 8];
        let elems = 17 * 8 * 8;
        let q = adcnn_core::compress::Quantizer::new(4, 2.0);
        let zeros = adcnn_core::compress::compress(&vec![0.0f32; elems], q);
        let mut answered = 0usize;
        while let Ok(Some((TAG_TASK, body))) = read_frame(&mut conn) {
            let task = adcnn_core::wire::TileTask::decode(&body).expect("task decodes");
            let res =
                adcnn_core::wire::make_result_from_parts(task.key, shape, elems, &zeros.payload, q);
            assert!(res.to_tensor().is_some(), "the frame itself must be healthy");
            let frame = adcnn_runtime::transport::encode_result_body(&res, 1000, 100);
            if write_frame(&mut conn, TAG_RESULT, &frame).is_err() {
                break;
            }
            answered += 1;
        }
        (slot, answered)
    });

    let rec = std::sync::Arc::new(RecordingSink::new());
    let cfg = RuntimeConfig { sink: SinkHandle::new(rec.clone()), ..Default::default() };
    let mut rt =
        AdcnnRuntime::launch_remote(spec(), 2, cfg, listener, Duration::from_secs(10)).unwrap();
    let mut local = AdcnnRuntime::launch(
        spec().build(),
        &[WorkerOptions::default(); 2],
        RuntimeConfig::default(),
    );
    let mut redispatched = 0;
    for s in 0..3 {
        let x = rand_image(700 + s);
        let want = local.infer(&x);
        let got = rt.infer(&x);
        assert_eq!(got.zero_filled, 0, "a wrong-shape tile was lost (received {:?})", got.received);
        assert_eq!(
            got.output.as_slice(),
            want.output.as_slice(),
            "output must be bit-identical to in-process"
        );
        redispatched += got.redispatched;
    }
    local.shutdown();
    rt.shutdown();
    honest.join().unwrap().unwrap();
    let (slot, answered) = impostor.join().unwrap();
    assert!(answered > 0, "the impostor was never allocated a tile");

    let corrupt: Vec<u32> = rec
        .events()
        .iter()
        .filter(|e| matches!(e, ObsEvent::TileCorrupt { .. }))
        .map(|e| e.worker().expect("corrupt events carry the worker"))
        .collect();
    // (Not one per answer: an answer that loses the race against a
    // re-dispatched copy is a duplicate, one for a retired image is dropped.)
    assert!(!corrupt.is_empty(), "wrong-shape results must surface as TileCorrupt");
    assert!(corrupt.len() <= answered);
    assert!(corrupt.iter().all(|&w| w == slot), "only the impostor's results are corrupt");
    assert!(redispatched > 0, "refused tiles are re-dispatched, not zero-filled");
}

/// Unix-domain-socket transport end to end (worker thread over a real UDS
/// connection).
#[cfg(unix)]
#[test]
fn uds_loopback_smoke() {
    let path = std::env::temp_dir().join(format!("adcnn-uds-{}.sock", std::process::id()));
    let listener = WorkerListener::bind(&Endpoint::Uds(path.clone())).unwrap();
    let endpoint = listener.endpoint().clone();
    let worker = spawn_loopback_worker(endpoint);
    let mut rt = AdcnnRuntime::launch_remote(
        spec(),
        1,
        RuntimeConfig::default(),
        listener,
        Duration::from_secs(10),
    )
    .unwrap();
    let out = rt.infer(&rand_image(500));
    assert_eq!(out.zero_filled, 0);
    rt.shutdown();
    worker.join().unwrap().unwrap();
    assert!(!path.exists(), "UDS socket file must be cleaned up");
}

/// A remote worker's spans carry the worker's own timings on RESULT
/// frames; the reader must lay them out the way an in-process worker
/// does — compute ends where compress begins, compress ends at the
/// stamp — or the attribution books compress time as queue wait.
#[test]
fn remote_spans_are_stamped_like_in_process_spans() {
    let listener = bind_loopback();
    let worker = spawn_loopback_worker(listener.endpoint().clone());
    let rec = std::sync::Arc::new(RecordingSink::new());
    let cfg = RuntimeConfig { sink: SinkHandle::new(rec.clone()), ..Default::default() };
    let mut rt =
        AdcnnRuntime::launch_remote(spec(), 1, cfg, listener, Duration::from_secs(10)).unwrap();
    let out = rt.infer(&rand_image(600));
    assert_eq!(out.zero_filled, 0);
    rt.shutdown();
    worker.join().unwrap().unwrap();

    let evs = rec.events();
    let mut tiles = 0;
    for ev in &evs {
        let ObsEvent::TileCompress { at, image, tile, dur, .. } = *ev else { continue };
        let compute_at = evs
            .iter()
            .find_map(|e| match *e {
                ObsEvent::TileCompute { at, image: i, tile: t, .. } if (i, t) == (image, tile) => {
                    Some(at)
                }
                _ => None,
            })
            .expect("every compress span has its compute span");
        assert!(dur > 0.0, "tile {tile}: compression took no time");
        assert!(
            (compute_at + dur - at).abs() < 1e-9,
            "tile {tile}: compute ends at {compute_at}, compress ({dur} s) ends at {at}"
        );
        tiles += 1;
    }
    assert_eq!(tiles, 4, "one compress span per tile of the 2x2 grid");
}

/// The join barrier fails loudly when workers never show up.
#[test]
fn launch_remote_times_out_without_workers() {
    let listener = bind_loopback();
    match AdcnnRuntime::launch_remote(
        spec(),
        2,
        RuntimeConfig::default(),
        listener,
        Duration::from_millis(200),
    ) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::TimedOut),
        Ok(_) => panic!("launch_remote succeeded with no workers connected"),
    }
}

/// Regression for the join-barrier race: the acceptor used to offer a
/// connection to the first slot whose supervisor had not *finished* its
/// handshake, so two workers connecting back to back could both be queued
/// into slot 0 and slot 1 never came up (about one launch in 130 on one
/// CPU). Every launch must now seat both workers well inside a 2 s
/// barrier.
///
/// Each launch → infer → shutdown → join cycle is also timed: nothing on
/// that path may wait on a poll period, so the median cycle stays under
/// 5 ms (an acceptor that slept 10 ms between `accept` attempts could not).
#[test]
fn back_to_back_joins_never_strand_the_barrier() {
    let x = rand_image(600);
    let mut cycles = Vec::with_capacity(300);
    for cycle in 0..300 {
        let t0 = Instant::now();
        let listener = bind_loopback();
        let endpoint = listener.endpoint().clone();
        let workers: Vec<_> = (0..2).map(|_| spawn_loopback_worker(endpoint.clone())).collect();
        let mut rt = AdcnnRuntime::launch_remote(
            spec(),
            2,
            RuntimeConfig::default(),
            listener,
            Duration::from_secs(2),
        )
        .unwrap_or_else(|e| panic!("launch {cycle}: {e}"));
        assert_eq!(rt.infer(&x).zero_filled, 0, "launch {cycle}");
        rt.shutdown();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        cycles.push(t0.elapsed());
    }
    let median = median(cycles);
    assert!(median < Duration::from_millis(5), "median launch-to-join cycle {median:?}");
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// A worker's disconnect is seen as soon as its reader hits EOF, not on a
/// supervisor's poll tick: a raw-socket worker joins, closes its socket,
/// and the slot must read down within 2 ms (median of 10 rejoins).
#[test]
fn reader_eof_marks_the_slot_down_without_a_poll() {
    let listener = bind_loopback();
    let Endpoint::Tcp(addr) = listener.endpoint().clone() else { unreachable!("tcp listener") };
    let join = || {
        let mut conn = TcpStream::connect(addr.as_str()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut conn, TAG_HELLO, &encode_hello(0)).unwrap();
        conn
    };
    // The first HELLO goes out before launch: the barrier waits for it.
    let mut first = Some(join());
    let rt = AdcnnRuntime::launch_remote(
        spec(),
        1,
        RuntimeConfig::default(),
        listener,
        Duration::from_secs(10),
    )
    .unwrap();
    let mut latencies = Vec::with_capacity(10);
    for _ in 0..10 {
        let mut conn = first.take().unwrap_or_else(join);
        let (tag, _) = read_frame(&mut conn).unwrap().expect("welcome");
        assert_eq!(tag, TAG_WELCOME);
        wait_for_live(&rt, &[true], Duration::from_secs(5));
        let t0 = Instant::now();
        drop(conn);
        while rt.live_workers()[0] {
            assert!(t0.elapsed() < Duration::from_secs(5), "disconnect never detected");
            std::thread::yield_now();
        }
        latencies.push(t0.elapsed());
    }
    let median = median(latencies);
    assert!(median < Duration::from_millis(2), "median EOF-to-down latency {median:?}");
    rt.shutdown();
}
