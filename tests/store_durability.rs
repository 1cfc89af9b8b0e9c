//! Durable-session integration tests through the `Pipeline::store`
//! front door: build-or-recover semantics, WAL replay, checkpointing,
//! the reset-warm regression, corruption honesty, and cross-process
//! adoption.
//!
//! "Byte-identical recovery" is asserted through
//! [`em::MatchSession::state_digest`]: a per-section checksum of the
//! session's semantic state (dataset, features, scores, canopies,
//! protected links, cover, evidence, warm fixpoint, carried warm-start
//! state, run/epoch counters).

use em::store::{SessionStoreError, SNAPSHOT_FILE, WAL_FILE};
use em::{Backend, ChurnOptions, DatasetDelta, MatcherChoice, Pipeline, Scheme, SplitPolicy};
use em_blocking::{BlockingConfig, SimilarityKernel};
use em_core::Dataset;
use em_datagen::{generate, DatasetProfile};
use em_store::StoreError;
use std::path::{Path, PathBuf};

fn template(seed: u64) -> Dataset {
    generate(&DatasetProfile::hepth().scaled(0.004).with_seed(seed)).dataset
}

fn pipeline(dataset: Dataset, backend: Backend) -> Pipeline {
    Pipeline::new(dataset)
        .blocking(BlockingConfig {
            kernel: SimilarityKernel::AuthorName,
            ..Default::default()
        })
        .matcher(MatcherChoice::MlnExact)
        .scheme(Scheme::Mmp)
        .backend(backend)
}

/// A fresh, empty store directory under the target dir (removed and
/// recreated so reruns start clean).
fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("em-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Recover whatever session lives under `dir`. The builder's dataset
/// is ignored on the recovery path, so an empty one suffices; the
/// configuration must match the original.
fn recover(dir: &Path, backend: Backend) -> em::MatchSession {
    pipeline(Dataset::new(), backend)
        .store(dir)
        .build()
        .expect("recovery of a clean store succeeds")
}

#[test]
fn durable_build_then_recover_is_byte_identical() {
    let dir = store_dir("basic");
    let t = template(11);
    let n = t.entities.len() as u32;
    let cut = n / 2;
    let mut base = Dataset::new();
    DatasetDelta::carve(&t, 0..cut).apply(&mut base);

    let mut live = pipeline(base, Backend::Sequential)
        .store(&dir)
        .build()
        .expect("durable build");
    assert_eq!(live.state_epoch(), 0);
    assert_eq!(live.last_persisted_epoch(), Some(0));
    let first = live.run();
    live.update(&DatasetDelta::carve(&t, cut..n));
    let warm = live.run();
    assert_eq!(live.state_epoch(), 3);
    assert_eq!(
        live.last_persisted_epoch(),
        Some(0),
        "no checkpoint was requested; everything since build is WAL"
    );
    let live_digest = live.state_digest();
    drop(live);

    let mut recovered = recover(&dir, Backend::Sequential);
    assert_eq!(recovered.state_epoch(), 3);
    assert_eq!(recovered.runs(), 2);
    assert_eq!(
        recovered.state_digest(),
        live_digest,
        "recovered session must be byte-identical to the live one"
    );

    // Recovery accounting surfaces on the next run's stats, and the
    // recovered session keeps producing the same fixpoint.
    let next = recovered.run();
    assert_eq!(next.matches, warm.matches);
    assert_eq!(next.stats.wal_frames_replayed, 3);
    assert!(next.stats.snapshot_bytes > 0);
    assert!(first.matches.is_subset(&next.matches));
    let shown = format!("{}", next.stats);
    assert!(
        shown.contains("frames replayed"),
        "store counters missing from {shown:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_truncates_the_wal_and_speeds_recovery() {
    let dir = store_dir("checkpoint");
    let t = template(12);
    let n = t.entities.len() as u32;
    let mut base = Dataset::new();
    DatasetDelta::carve(&t, 0..n / 2).apply(&mut base);

    let mut live = pipeline(base, Backend::Sequential)
        .store(&dir)
        .build()
        .expect("durable build");
    live.run();
    live.update(&DatasetDelta::carve(&t, n / 2..n));
    assert_eq!(live.session_store().unwrap().wal_frames(), 2);

    let bytes = live.checkpoint().expect("checkpoint succeeds");
    assert!(bytes > 0);
    assert_eq!(live.session_store().unwrap().wal_frames(), 0);
    assert_eq!(live.last_persisted_epoch(), Some(live.state_epoch()));
    let digest = live.state_digest();
    drop(live);

    let mut recovered = recover(&dir, Backend::Sequential);
    assert_eq!(recovered.state_digest(), digest);
    let next = recovered.run();
    assert_eq!(
        next.stats.wal_frames_replayed, 0,
        "the checkpoint absorbed every journaled frame"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The reset-warm regression: the reset is journaled as its own WAL
/// frame, so recovery replays it and can never resurrect the dropped
/// warm state from the pre-reset snapshot.
#[test]
fn recovery_after_reset_warm_does_not_resurrect_warm_state() {
    let dir = store_dir("reset");
    let mut live = pipeline(template(13), Backend::Sequential)
        .store(&dir)
        .build()
        .expect("durable build");
    let out = live.run();
    assert!(!out.matches.is_empty(), "world must produce matches");
    // Checkpoint *with* warm state, then reset: the snapshot now holds
    // exactly the state a buggy recovery would resurrect.
    live.checkpoint().expect("checkpoint succeeds");
    live.reset_warm();
    assert!(live.warm_matches().is_empty());
    let digest = live.state_digest();
    drop(live);

    let recovered = recover(&dir, Backend::Sequential);
    assert!(
        recovered.warm_matches().is_empty(),
        "recovery resurrected warm state dropped by reset_warm"
    );
    assert_eq!(recovered.state_digest(), digest);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_is_identical_on_the_sharded_backend() {
    let dir = store_dir("sharded");
    let backend = Backend::Sharded {
        shards: 4,
        split_policy: SplitPolicy::Split,
    };
    let t = template(14);
    let n = t.entities.len() as u32;
    let mut base = Dataset::new();
    DatasetDelta::carve(&t, 0..n / 2).apply(&mut base);

    let mut live = pipeline(base, backend)
        .store(&dir)
        .build()
        .expect("durable build");
    live.run();
    live.update(&DatasetDelta::carve(&t, n / 2..n));
    let warm = live.run();
    let digest = live.state_digest();
    drop(live);

    let mut recovered = recover(&dir, backend);
    assert_eq!(
        recovered.state_digest(),
        digest,
        "sharded recovery diverged (plan is excluded from the digest; \
         everything else must replay byte-identically)"
    );
    assert_eq!(recovered.run().matches, warm.matches);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_wal_tail_is_truncated_and_reported() {
    let dir = store_dir("torn");
    let t = template(15);
    let n = t.entities.len() as u32;
    let mut base = Dataset::new();
    DatasetDelta::carve(&t, 0..n / 2).apply(&mut base);

    let mut live = pipeline(base, Backend::Sequential)
        .store(&dir)
        .build()
        .expect("durable build");
    live.run();
    let digest_after_run = live.state_digest();
    live.update(&DatasetDelta::carve(&t, n / 2..n));
    drop(live);

    // Crash mid-append: cut the last frame (the update's delta) short.
    let wal = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(len - 7).unwrap();
    drop(file);

    let recovered = recover(&dir, Backend::Sequential);
    let store = recovered.session_store().unwrap();
    assert!(
        store.wal_torn_bytes() > 0,
        "the torn tail must be reported, not hidden"
    );
    assert_eq!(
        store.wal_frames(),
        1,
        "only the fsynced run frame survives; the torn update frame is dropped"
    );
    assert_eq!(
        recovered.state_digest(),
        digest_after_run,
        "recovery lands exactly at the last durable operation"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flipped_wal_byte_is_a_typed_crc_error() {
    let dir = store_dir("flip-wal");
    let mut live = pipeline(template(16), Backend::Sequential)
        .store(&dir)
        .build()
        .expect("durable build");
    live.run();
    drop(live);

    let wal = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&wal, &bytes).unwrap();

    let err = pipeline(Dataset::new(), Backend::Sequential)
        .store(&dir)
        .build()
        .expect_err("corrupt WAL must fail recovery");
    assert!(
        matches!(
            &err,
            em::PipelineError::Store(e)
                if matches!(**e, SessionStoreError::Store(StoreError::Corrupt { .. }))
        ),
        "wrong error shape: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_corruption_and_version_bumps_are_rejected() {
    let dir = store_dir("flip-snap");
    let live = pipeline(template(17), Backend::Sequential)
        .store(&dir)
        .build()
        .expect("durable build");
    drop(live);

    let snap = dir.join(SNAPSHOT_FILE);
    let pristine = std::fs::read(&snap).unwrap();

    // A flipped payload byte fails the section CRC.
    let mut bytes = pristine.clone();
    let n = bytes.len();
    bytes[n - 9] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();
    let err = pipeline(Dataset::new(), Backend::Sequential)
        .store(&dir)
        .build()
        .expect_err("corrupt snapshot must fail recovery");
    assert!(
        matches!(
            &err,
            em::PipelineError::Store(e)
                if matches!(**e, SessionStoreError::Store(StoreError::Corrupt { .. }))
        ),
        "wrong error shape: {err}"
    );

    // A bumped format version is rejected outright (magic is 12 bytes;
    // the version's little-endian low byte follows).
    let mut bytes = pristine;
    bytes[12] = bytes[12].wrapping_add(1);
    std::fs::write(&snap, &bytes).unwrap();
    let err = pipeline(Dataset::new(), Backend::Sequential)
        .store(&dir)
        .build()
        .expect_err("future-version snapshot must fail recovery");
    assert!(
        matches!(
            &err,
            em::PipelineError::Store(e)
                if matches!(**e, SessionStoreError::Store(StoreError::VersionMismatch { .. }))
        ),
        "wrong error shape: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Cross-process adoption: a child process (this same test binary,
/// re-invoked with `EM_STORE_CHILD` set) builds a durable session,
/// mutates it, writes its digest, and exits; the parent then recovers
/// the directory in *this* process and must land on the same bytes.
#[test]
fn recovery_adopts_sessions_from_another_process() {
    let dir = store_dir("cross-process");

    if let Ok(child_dir) = std::env::var("EM_STORE_CHILD") {
        // Child role: write the session, record the digest, exit.
        let child_dir = PathBuf::from(child_dir);
        let t = template(18);
        let n = t.entities.len() as u32;
        let mut base = Dataset::new();
        DatasetDelta::carve(&t, 0..n / 2).apply(&mut base);
        let mut session = pipeline(base, Backend::Sequential)
            .store(&child_dir)
            .build()
            .expect("durable build in child");
        session.run();
        session.update(&DatasetDelta::carve(&t, n / 2..n));
        session.run();
        std::fs::write(child_dir.join("digest.txt"), session.state_digest()).unwrap();
        return;
    }

    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(exe)
        .args(["--exact", "recovery_adopts_sessions_from_another_process"])
        .env("EM_STORE_CHILD", &dir)
        .status()
        .expect("spawn child test process");
    assert!(status.success(), "child process failed");

    let child_digest = std::fs::read_to_string(dir.join("digest.txt")).unwrap();
    let recovered = recover(&dir, Backend::Sequential);
    assert_eq!(recovered.runs(), 2);
    assert_eq!(
        recovered.state_digest(),
        child_digest,
        "recovery in a fresh process diverged from the writing process"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Snapshot growth the level churn below may show between the first
/// churned step and the last. Measured on this script (hepth 0.004,
/// seed 7, 48 steps): with unclaimed bank entries retired at every run
/// the snapshot shrinks, 130,439 -> 121,589 bytes sequential and
/// 137,303 -> 128,772 sharded; when they are kept, the bank grows from
/// 117 to 488 entries against 102-111 neighborhoods and the snapshot
/// nearly doubles, 144,358 -> 281,590 and 151,222 -> 288,773 bytes.
const SNAPSHOT_GROWTH_BOUND: f64 = 1.25;

/// A served session under level churn — each delta adds the next slice
/// of the template and retracts about as many live entities — must
/// carry warm state bounded by the live cover: after every run the
/// probe-memo and certificate banks hold at most one entry per
/// neighborhood, so the snapshot stays level instead of growing with
/// every view a re-block reshuffled away. The churned session must
/// still end on the cold run's match set, on both backends.
#[test]
fn level_churn_keeps_the_banks_and_snapshot_bounded_by_the_live_cover() {
    let t = template(7);
    let n = t.entities.len() as u32;
    let initial = n / 2;
    let steps = 48usize;
    let slice = f64::from(n - initial) / steps as f64;
    let opts = ChurnOptions {
        retract_fraction: (slice + 0.5) / f64::from(initial),
        ..ChurnOptions::default()
    };
    let (base, deltas) = DatasetDelta::churn_script_with(&t, initial, steps, 7, &opts);
    let sharded = Backend::Sharded {
        shards: 4,
        split_policy: SplitPolicy::Split,
    };
    for (arm, backend) in [("sequential", Backend::Sequential), ("sharded", sharded)] {
        let dir = store_dir(&format!("bank-bound-{arm}"));
        let mut live = pipeline(base.clone(), backend)
            .check_invariants(true)
            .store(&dir)
            .build()
            .expect("durable build");
        let mut mirror = base.clone();
        live.run();
        let mut retired = 0;
        let mut first_bytes = 0;
        for (step, delta) in deltas.iter().enumerate() {
            live.update(delta);
            delta.apply(&mut mirror);
            let outcome = live.run();
            retired += outcome.stats.memos_retired;
            assert_eq!(
                outcome.stats.invariant_violations,
                0,
                "{arm} step {step}: {:?}",
                live.last_invariants().map(|r| &r.violations)
            );
            let warm = live.warm_start();
            let neighborhoods = live.cover().len();
            assert!(
                warm.bank.len() <= neighborhoods && warm.certs.len() <= neighborhoods,
                "{arm} step {step}: {} banked memos and {} certificate sets for \
                 {neighborhoods} neighborhoods",
                warm.bank.len(),
                warm.certs.len()
            );
            if step == 0 {
                first_bytes = live.checkpoint().expect("first churned checkpoint");
            }
        }
        let last_bytes = live.checkpoint().expect("last checkpoint");
        assert!(
            retired > 0,
            "{arm}: level churn must reshuffle some views away"
        );
        assert!(
            last_bytes as f64 <= first_bytes as f64 * SNAPSHOT_GROWTH_BOUND,
            "{arm}: snapshot grew from {first_bytes} to {last_bytes} bytes over {steps} steps"
        );
        assert!(live.suppressed_links().is_empty(), "no link churn");
        let cold = pipeline(mirror, backend).build().expect("cold build").run();
        assert_eq!(
            live.matches(),
            &cold.matches,
            "{arm}: churned session diverged from the cold run"
        );
        drop(live);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
