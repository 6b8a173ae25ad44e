//! Push-model job golden tests: a `begin_job` → `append_chunk`* → `finish`
//! sequence must write the **exact bytes** of the pull-model
//! `Engine::run_streaming` over the same rows, and `resume_job` must reopen a
//! store torn at **any** byte and continue to the same bytes — with no source,
//! which is the property the encryption service builds its crash-resumable
//! sessions on (a reconnecting client re-sends rows from `job.rows()` onward).

use f2_core::{DetScheme, PaillierScheme, ProbScheme, Scheme, F2};
use f2_crypto::MasterKey;
use f2_engine::{Engine, EngineConfig, StreamJob};
use f2_io::{FrameReader, RowSource, StreamStore, TableSource};
use f2_relation::Table;
use std::io::Cursor;

fn fixture(rows: usize) -> Table {
    f2_datagen::Dataset::Orders.generate(rows, 77)
}

fn engine() -> Engine {
    Engine::new(EngineConfig { workers: 1, chunk_rows: 5, seed: 41 }).unwrap()
}

/// Absolute stream offsets after the preamble and after each frame.
fn frame_boundaries(stream: &[u8]) -> Vec<u64> {
    let mut reader = FrameReader::new(stream).expect("own stream has a valid preamble");
    let mut offsets = vec![reader.bytes_consumed()];
    while reader.next_frame().expect("own stream decodes").is_some() {
        offsets.push(reader.bytes_consumed());
    }
    offsets.push(reader.bytes_consumed());
    offsets
}

/// Cut positions: inside the preamble, at every frame boundary, and torn
/// mid-frame — the same grid `resume_golden.rs` drives the pull path over.
fn cut_grid(stream: &[u8]) -> Vec<usize> {
    let boundaries = frame_boundaries(stream);
    let mut cuts = vec![0, 3, 6];
    for pair in boundaries.windows(2) {
        let (start, end) = (pair[0] as usize, pair[1] as usize);
        cuts.push(start);
        cuts.push((start + 1).min(end));
        cuts.push(start + (end - start) / 2);
    }
    cuts.push(stream.len() - 1);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Push every chunk of `t` from `from_row` onward into `job` and finish,
/// returning the outcome and the store.
fn push_rest<S: Scheme, T: StreamStore>(
    scheme: &S,
    t: &Table,
    mut job: StreamJob<T>,
) -> (f2_engine::StreamOutcome, T) {
    let mut source = TableSource::new(t);
    source.seek_to_row(job.rows()).unwrap();
    while let Some(chunk) = source.next_chunk(job.chunk_rows()).unwrap() {
        job.append_chunk(scheme, &chunk).unwrap();
    }
    job.finish_into_store().unwrap()
}

fn assert_push_matches_pull<S: Scheme>(label: &str, scheme: &S, t: &Table) {
    let engine = engine();
    let mut full = Vec::new();
    let pull = engine.run_streaming(scheme, &mut TableSource::new(t), &mut full).unwrap();

    let job = engine.begin_job(scheme, t.schema(), Cursor::new(Vec::new())).unwrap();
    let (push, store) = push_rest(scheme, t, job);
    assert_eq!(store.get_ref(), &full, "{label}: push-model bytes diverged from the pull path");
    assert_eq!(push.rows, pull.rows, "{label}: row totals diverged");
    assert_eq!(push.encrypted_rows, pull.encrypted_rows, "{label}: output totals diverged");
    assert_eq!(push.chunks.len(), pull.chunks.len(), "{label}: chunk counts diverged");
    assert_eq!(push.bytes_written, pull.bytes_written, "{label}: byte totals diverged");
}

#[test]
fn a_push_job_writes_the_exact_pull_path_stream_for_every_backend() {
    let t = fixture(23); // 4 full chunks + 1 short final chunk
    let master = MasterKey::from_seed(41);
    assert_push_matches_pull(
        "f2",
        &F2::builder().alpha(0.5).seed(41).master_key(master.clone()).build().unwrap(),
        &t,
    );
    assert_push_matches_pull("det", &DetScheme::new(master.clone()), &t);
    assert_push_matches_pull("prob", &ProbScheme::new(master, 41), &t);
    assert_push_matches_pull("paillier", &PaillierScheme::new(64, 41).unwrap(), &t);
}

fn assert_job_resume_is_byte_exact<S: Scheme>(label: &str, scheme: &S, t: &Table) {
    let engine = engine();
    let mut full = Vec::new();
    engine.run_streaming(scheme, &mut TableSource::new(t), &mut full).unwrap();
    for cut in cut_grid(&full) {
        let store = Cursor::new(full[..cut].to_vec());
        let job = engine
            .resume_job(scheme, t.schema(), store)
            .unwrap_or_else(|e| panic!("{label}: resume_job from cut {cut} failed: {e}"));
        // No source was involved in the resume: the job reports the rows it
        // already holds, and the "client" re-sends the rest. The resume point
        // always sits on a chunk boundary (the short final chunk included).
        assert!(
            job.rows().is_multiple_of(5) || job.rows() == t.row_count(),
            "{label}@{cut}: resume point {} is not a chunk boundary",
            job.rows()
        );
        let (_, store) = push_rest(scheme, t, job);
        assert_eq!(
            store.get_ref(),
            &full,
            "{label}: resume_job from cut {cut} diverged from the uninterrupted stream"
        );
    }
}

#[test]
fn an_interrupted_job_resumes_sourcelessly_and_byte_exactly_at_every_cut() {
    // Every stored prefix chunk is decrypted and re-encrypted, and must
    // match its frame byte for byte at every cut, on every backend.
    let t = fixture(23);
    let master = MasterKey::from_seed(41);
    assert_job_resume_is_byte_exact(
        "f2",
        &F2::builder().alpha(0.5).seed(41).master_key(master.clone()).build().unwrap(),
        &t,
    );
    assert_job_resume_is_byte_exact("det", &DetScheme::new(master.clone()), &t);
    assert_job_resume_is_byte_exact("prob", &ProbScheme::new(master, 41), &t);
    assert_job_resume_is_byte_exact("paillier", &PaillierScheme::new(64, 41).unwrap(), &t);
}

#[test]
fn resuming_a_finished_stream_reopens_after_its_last_full_chunk() {
    // 20 rows = 4 full chunks, no short final chunk: the trailer is truncated
    // away and the stream is extendable. The short-chunk guard still protects
    // streams that ended on a short chunk (appending past one is an error).
    let t = fixture(20);
    let scheme = DetScheme::new(MasterKey::from_seed(41));
    let engine = engine();
    let mut full = Vec::new();
    engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut full).unwrap();

    let job = engine.resume_job(&scheme, t.schema(), Cursor::new(full.clone())).unwrap();
    assert_eq!(job.rows(), 20);
    assert_eq!(job.next_chunk_index(), 4);
    let (outcome, store) = job.finish_into_store().unwrap();
    assert_eq!(store.get_ref(), &full, "re-finishing without new chunks must be a no-op");
    assert_eq!(outcome.rows, 20);
}

/// Write a stream under `theirs`, tear it inside its third chunk frame, and
/// demand that `resume_job` under `ours` refuses it and leaves it untouched.
fn assert_other_keys_are_refused(label: &str, theirs: &dyn Scheme, ours: &dyn Scheme, t: &Table) {
    let engine = engine();
    let mut full = Vec::new();
    engine.run_streaming(theirs, &mut TableSource::new(t), &mut full).unwrap();
    // Two intact chunk frames and the third torn mid-frame.
    let boundaries = frame_boundaries(&full);
    let cut = (boundaries[3] + boundaries[4]) as usize / 2;
    let mut store = Cursor::new(full[..cut].to_vec());
    let refused = engine.resume_job(ours, t.schema(), &mut store);
    assert!(refused.is_err(), "{label}: a store written under other keys was accepted");
    // A refused resume touches nothing: the torn tail is still there.
    assert_eq!(store.get_ref(), &full[..cut], "{label}: a refused resume modified the store");
}

#[test]
fn a_job_store_written_under_other_keys_is_refused_for_every_backend() {
    // The CRC cross-check during the sourceless replay: a store produced under
    // a different master key fails to decrypt (or re-encrypts to different
    // bytes), and resume_job must refuse it instead of splicing streams.
    let t = fixture(23);
    let (theirs, ours) = (MasterKey::from_seed(7), MasterKey::from_seed(8));
    let f2 = |master| F2::builder().alpha(0.5).seed(41).master_key(master).build().unwrap();
    assert_other_keys_are_refused("f2", &f2(theirs.clone()), &f2(ours.clone()), &t);
    let (det_theirs, det_ours) = (DetScheme::new(theirs.clone()), DetScheme::new(ours.clone()));
    assert_other_keys_are_refused("det", &det_theirs, &det_ours, &t);
    let (prob_theirs, prob_ours) = (ProbScheme::new(theirs, 41), ProbScheme::new(ours, 41));
    assert_other_keys_are_refused("prob", &prob_theirs, &prob_ours, &t);
    let paillier = |seed| PaillierScheme::new(64, seed).unwrap();
    assert_other_keys_are_refused("paillier", &paillier(7), &paillier(8), &t);
}

#[test]
fn a_job_enforces_the_pull_paths_chunk_invariants() {
    let t = fixture(13);
    let scheme = DetScheme::new(MasterKey::from_seed(41));
    let engine = engine();
    let mut job = engine.begin_job(&scheme, t.schema(), Cursor::new(Vec::new())).unwrap();

    // An oversized chunk is rejected.
    let err = job.append_chunk(&scheme, &t.as_view()).unwrap_err();
    assert!(err.to_string().contains("expected 1..="), "{err}");

    // A chunk of another schema is rejected before anything is encrypted.
    let narrow = f2_relation::table! { ["OrderKey"]; ["1"], ["2"] };
    assert_ne!(narrow.schema(), t.schema());
    let err = job.append_chunk(&scheme, &narrow.as_view()).unwrap_err();
    assert!(err.to_string().contains("schema"), "{err}");
    assert_eq!((job.rows(), job.next_chunk_index()), (0, 0));

    // A short chunk is accepted once — and is final.
    let mut source = TableSource::new(&t);
    source.seek_to_row(10).unwrap();
    let short = source.next_chunk(5).unwrap().expect("3 rows remain");
    job.append_chunk(&scheme, &short).unwrap();
    let err = job.append_chunk(&scheme, &short).unwrap_err();
    assert!(err.to_string().contains("short chunk"), "{err}");
}
