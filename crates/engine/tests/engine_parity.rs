//! Engine parity: for every backend of the conformance grid, the chunked parallel
//! pipeline must produce an outcome that (a) decrypts to exactly the plaintext the
//! single-shot `Scheme::encrypt` path decrypts to, (b) is byte-identical whatever the
//! worker count, and (c) still decrypts after its owner state takes a round trip
//! through the wire format into a *fresh* scheme instance (simulating a second
//! process that only holds the key material).

use f2_core::{DetScheme, PaillierScheme, ProbScheme, Scheme, SchemeOutcome, F2};
use f2_crypto::MasterKey;
use f2_datagen::Dataset;
use f2_engine::persist::{decode_state, encode_state};
use f2_engine::{Engine, EngineConfig};
use f2_relation::{table, Table};

/// A backend paired with a factory for a fresh, independently constructed instance
/// holding the same key material (the "second process").
struct Backend {
    scheme: Box<dyn Scheme>,
    fresh: Box<dyn Fn() -> Box<dyn Scheme>>,
}

fn backends() -> Vec<Backend> {
    let mut all: Vec<Backend> = Vec::new();
    for (alpha, split) in [(1.0, 1), (0.5, 2), (0.2, 3)] {
        let build = move || {
            F2::builder().alpha(alpha).split_factor(split).seed(17).build().expect("valid grid")
        };
        all.push(Backend { scheme: Box::new(build()), fresh: Box::new(move || Box::new(build())) });
    }
    all.push(Backend {
        scheme: Box::new(DetScheme::new(MasterKey::from_seed(23))),
        fresh: Box::new(|| Box::new(DetScheme::new(MasterKey::from_seed(23)))),
    });
    all.push(Backend {
        scheme: Box::new(ProbScheme::new(MasterKey::from_seed(29), 29)),
        fresh: Box::new(|| Box::new(ProbScheme::new(MasterKey::from_seed(29), 29))),
    });
    all.push(Backend {
        scheme: Box::new(PaillierScheme::new(64, 31).expect("modulus large enough")),
        fresh: Box::new(|| Box::new(PaillierScheme::new(64, 31).expect("modulus large enough"))),
    });
    all
}

fn fixtures() -> Vec<(Table, String)> {
    let mut tables = vec![(
        table! {
            ["Zip", "City", "Name"];
            ["07030", "Hoboken", "alice"],
            ["07030", "Hoboken", "bob"],
            ["07030", "Hoboken", "carol"],
            ["10001", "NewYork", "dave"],
            ["10001", "NewYork", "erin"],
            ["08540", "Princeton", "frank"],
            ["08540", "Princeton", "grace"],
        },
        "fixture".to_owned(),
    )];
    for dataset in [Dataset::Orders, Dataset::Customer, Dataset::Synthetic] {
        tables.push((dataset.generate(24, 61), dataset.name().to_owned()));
    }
    tables
}

#[test]
fn chunked_parallel_encrypt_matches_single_shot_decryption() {
    for backend in backends() {
        let scheme = backend.scheme.as_ref();
        for (t, label) in fixtures() {
            let single = scheme.encrypt(&t).expect("single-shot encrypt");
            let engine = Engine::new(EngineConfig { workers: 3, chunk_rows: 4, seed: 17 })
                .expect("valid config");
            let run = engine.encrypt(scheme, &t).expect("engine encrypt");
            assert!(run.chunks.len() >= 2, "{}: want a real multi-chunk run", scheme.name());
            let via_engine = scheme.decrypt(&run.outcome).expect("engine outcome decrypts");
            let via_single = scheme.decrypt(&single).expect("single outcome decrypts");
            assert!(
                via_engine.multiset_eq(&t) && via_single.multiset_eq(&t),
                "{} on {label}: chunked and single-shot paths must both recover the plaintext",
                scheme.name()
            );
            // Row ground truth of the merged outcome points at valid rows.
            for (out_row, orig_row) in scheme.real_rows(&run.outcome).expect("ground truth") {
                assert!(out_row < run.outcome.encrypted.row_count());
                assert!(orig_row < t.row_count());
            }
        }
    }
}

#[test]
fn engine_output_is_independent_of_worker_count() {
    let t = Dataset::Orders.generate(30, 7);
    for backend in backends() {
        let scheme = backend.scheme.as_ref();
        let encrypt = |workers| {
            Engine::new(EngineConfig { workers, chunk_rows: 8, seed: 3 })
                .expect("valid config")
                .encrypt(scheme, &t)
                .expect("engine encrypt")
                .outcome
                .encrypted
        };
        assert_eq!(encrypt(1), encrypt(4), "{}: worker count changed bytes", scheme.name());
    }
}

#[test]
fn saved_state_decrypts_in_a_fresh_scheme_instance() {
    let t = Dataset::Customer.generate(20, 19);
    for backend in backends() {
        let scheme = backend.scheme.as_ref();
        let run = Engine::new(EngineConfig { workers: 2, chunk_rows: 6, seed: 19 })
            .expect("valid config")
            .encrypt(scheme, &t)
            .expect("engine encrypt");
        // `encode_state` in this process …
        let blob = encode_state(&run.outcome.state).expect("save state");
        // … `decode_state` + decrypt in a "second process": a scheme instance that
        // shares nothing with the encryptor but its construction parameters.
        let second = (backend.fresh)();
        let restored = SchemeOutcome {
            encrypted: run.outcome.encrypted,
            state: decode_state(&blob).expect("load state"),
            report: run.outcome.report,
        };
        let recovered = second.decrypt(&restored).expect("decrypt in fresh instance");
        assert!(recovered.multiset_eq(&t), "{}: persisted state lost rows", second.name());
    }
}
