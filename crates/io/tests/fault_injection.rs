//! Integration tests of the fault-injection harness against the retry and
//! recovery layers: seeded [`FaultPlan`]s drive [`FaultyReader`] /
//! [`FaultyWriter`] wrappers, and the suite asserts that
//! [`RetryPolicy`]-wrapped transports absorb exactly the transient faults,
//! propagate fatal ones, and that the frame layer's recovery resynchronizes
//! across injected corruption — all deterministically reproducible from the
//! plan's seed.

use f2_io::{
    FaultKind, FaultPlan, FaultyReader, FaultyWriter, FrameReader, FrameSink, RetryPolicy,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{ErrorKind, Read, Write};

/// A frame stream of `frames` payloads, plus each frame's absolute offset.
fn golden_stream(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut sink = FrameSink::new(Vec::new()).expect("sink opens");
    for (i, payload) in payloads.iter().enumerate() {
        let frame_type = if i == 0 { 1 } else { 2 };
        sink.write_frame(frame_type, payload).expect("frame writes");
    }
    sink.finish().expect("stream finishes").0
}

#[test]
fn retrying_reader_absorbs_transient_faults_and_delivers_exact_bytes() {
    let data: Vec<u8> = (0u8..=255).cycle().take(4096).collect();
    // Three transient faults scattered across the stream: each fails one read,
    // consumes nothing, and heals on the retry.
    let plan = FaultPlan::new()
        .with(0, FaultKind::Transient(ErrorKind::TimedOut))
        .with(1500, FaultKind::Transient(ErrorKind::ConnectionReset))
        .with(4000, FaultKind::Transient(ErrorKind::WouldBlock));
    let policy = RetryPolicy::no_backoff(4);
    let mut reader = policy.reader(FaultyReader::new(&data[..], plan));
    let mut out = Vec::new();
    reader.read_to_end(&mut out).expect("retries absorb every transient fault");
    assert_eq!(out, data, "retried reads must deliver the exact byte stream");
}

#[test]
fn retrying_writer_absorbs_transients_and_short_writes() {
    let data: Vec<u8> = (0u8..=255).cycle().take(4096).collect();
    let plan = FaultPlan::new()
        .with(10, FaultKind::Transient(ErrorKind::TimedOut))
        .with(700, FaultKind::ShortWrite(3))
        .with(2048, FaultKind::Transient(ErrorKind::ConnectionAborted))
        .with(3000, FaultKind::ShortWrite(1));
    let policy = RetryPolicy::no_backoff(4);
    let mut writer = policy.writer(FaultyWriter::new(Vec::new(), plan));
    writer.write_all(&data).expect("retries and write_all absorb the plan");
    writer.flush().unwrap();
    assert_eq!(writer.into_inner().into_inner(), data);
}

#[test]
fn a_single_attempt_policy_propagates_the_first_transient_fault() {
    let data = [7u8; 64];
    let plan = FaultPlan::new().with(0, FaultKind::Transient(ErrorKind::TimedOut));
    let mut reader = RetryPolicy::no_backoff(1).reader(FaultyReader::new(&data[..], plan));
    let err = reader.read_to_end(&mut Vec::new()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::TimedOut);
}

#[test]
fn fatal_errors_are_never_retried() {
    // NotFound is not in the transient class: one failure ends the operation
    // even with a generous budget.
    let data = [7u8; 64];
    let plan = FaultPlan::new().with(0, FaultKind::Transient(ErrorKind::NotFound));
    let mut reader = RetryPolicy::no_backoff(10).reader(FaultyReader::new(&data[..], plan));
    let err = reader.read_to_end(&mut Vec::new()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::NotFound);
}

#[test]
fn an_exhausted_retry_budget_surfaces_the_last_transient_error() {
    // More consecutive faults at the same offset than the budget allows.
    let data = [7u8; 64];
    let mut plan = FaultPlan::new();
    for _ in 0..5 {
        plan.push(0, FaultKind::Transient(ErrorKind::TimedOut));
    }
    let mut reader = RetryPolicy::no_backoff(3).reader(FaultyReader::new(&data[..], plan));
    let err = reader.read_to_end(&mut Vec::new()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::TimedOut, "budget exhausted: the fault surfaces");
    // The same plan under a budget larger than the fault count succeeds.
    let mut plan = FaultPlan::new();
    for _ in 0..5 {
        plan.push(0, FaultKind::Transient(ErrorKind::TimedOut));
    }
    let mut reader = RetryPolicy::no_backoff(8).reader(FaultyReader::new(&data[..], plan));
    let mut out = Vec::new();
    reader.read_to_end(&mut out).expect("budget covers the fault burst");
    assert_eq!(out, data);
}

#[test]
fn frames_written_through_faulty_retrying_transport_read_back_exactly() {
    // The composition a caller hands the engine: FrameSink over RetryingWriter
    // over the raw (here: faulty) transport. The injected transients and short
    // writes must be invisible in the finished stream.
    let payloads: Vec<Vec<u8>> =
        (0..6).map(|i| (0..200 + i * 37).map(|b| (b % 251) as u8).collect()).collect();
    let clean = golden_stream(&payloads);

    let plan = FaultPlan::random(0xFA_417, clean.len() as u64, 6);
    // Random plans mix in bit flips, which a writer cannot mask — keep only the
    // producer-side-absorbable kinds for this byte-identity check.
    let mut producer_plan = FaultPlan::new();
    for fault in plan.faults() {
        if !matches!(fault.kind, FaultKind::BitFlip(_)) {
            producer_plan.push(fault.at, fault.kind);
        }
    }
    producer_plan.push(40, FaultKind::Transient(ErrorKind::TimedOut));
    producer_plan.push(41, FaultKind::ShortWrite(2));

    let policy = RetryPolicy::no_backoff(4);
    let mut sink = FrameSink::new(policy.writer(FaultyWriter::new(Vec::new(), producer_plan)))
        .expect("sink opens through the faulty transport");
    for (i, payload) in payloads.iter().enumerate() {
        let frame_type = if i == 0 { 1 } else { 2 };
        sink.write_frame(frame_type, payload).expect("frame writes through faults");
    }
    let (writer, _) = sink.finish().expect("stream finishes");
    assert_eq!(writer.into_inner().into_inner(), clean, "faults leaked into the stream bytes");
}

#[test]
fn recovery_resynchronizes_across_injected_bit_flips() {
    let payloads: Vec<Vec<u8>> = (0..5).map(|i| vec![i as u8 + 1; 300]).collect();
    let clean = golden_stream(&payloads);
    // Flip one bit inside the stream's middle — exactly one frame dies, every
    // other frame is recovered.
    let plan = FaultPlan::new().with(clean.len() as u64 / 2, FaultKind::BitFlip(0x10));
    let mut reader =
        FrameReader::new(FaultyReader::new(&clean[..], plan)).expect("preamble intact");
    let mut recovered = 0usize;
    loop {
        match reader.next_frame() {
            Ok(Some(_)) => recovered += 1,
            Ok(None) => break,
            Err(_) => match reader.recover().expect("recovery scans, not fails") {
                Some(_) => recovered += 1,
                None => break,
            },
        }
    }
    assert_eq!(recovered, payloads.len() - 1, "exactly the flipped frame is lost");
    assert_eq!(reader.skipped_ranges().len(), 1);
    assert!(reader.ended(), "the stream still ends cleanly after recovery");
}

#[test]
fn backoff_schedule_is_deterministic_and_bounded() {
    let policy = RetryPolicy::new(8).with_seed(1234);
    let schedule = |p: &RetryPolicy| {
        let mut rng = p.seed;
        let mut prev = p.base_delay;
        (0..16)
            .map(|_| {
                let d = p.next_delay(&mut rng, prev);
                prev = d.max(p.base_delay);
                d
            })
            .collect::<Vec<_>>()
    };
    let a = schedule(&policy);
    let b = schedule(&policy);
    assert_eq!(a, b, "same seed, same schedule");
    assert!(a.iter().all(|d| *d >= policy.base_delay && *d <= policy.max_delay));
    let c = schedule(&RetryPolicy::new(8).with_seed(77));
    assert_ne!(a, c, "different seed, different schedule");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random fault plans against the recovering frame reader: whatever the
    /// plan does to the bytes, the reader must never panic, and every frame it
    /// does deliver must be one of the originals (CRC-verified resync never
    /// invents data).
    #[test]
    fn random_fault_plans_never_panic_the_recovering_reader(
        seed in 0u64..1 << 48,
        fault_count in 0usize..12,
        payload_sizes in vec(1usize..400, 1..6),
    ) {
        let payloads: Vec<Vec<u8>> = payload_sizes
            .iter()
            .enumerate()
            .map(|(i, len)| (0..*len).map(|b| ((b * 7 + i * 13) % 256) as u8).collect())
            .collect();
        let clean = golden_stream(&payloads);
        let mut plan = FaultPlan::random(seed, clean.len() as u64, fault_count);
        if seed % 3 == 0 {
            plan.push(seed % clean.len() as u64, FaultKind::Truncate);
        }
        let policy = RetryPolicy::no_backoff(16);
        let mut reader = match FrameReader::new(
            policy.reader(FaultyReader::new(&clean[..], plan)),
        ) {
            Ok(reader) => reader,
            Err(_) => continue, // damaged preamble: a legal, clean failure
        };
        let mut delivered = 0usize;
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => {
                    prop_assert!(
                        payloads.contains(&frame.payload),
                        "recovery invented a frame payload"
                    );
                    delivered += 1;
                }
                Ok(None) => break,
                Err(_) => match reader.recover() {
                    Ok(Some(frame)) => {
                        prop_assert!(
                            payloads.contains(&frame.payload),
                            "recovery invented a frame payload"
                        );
                        delivered += 1;
                    }
                    Ok(None) => break,
                    // Non-transient transport error: clean failure, no panic.
                    Err(_) => break,
                },
            }
        }
        // Every original frame is either delivered or accounted as damage
        // (skipped bytes / lost tail) — never silently both or neither.
        prop_assert!(delivered <= payloads.len());
    }
}
