//! `F2WS` **version-2** golden vectors.
//!
//! The stream below was produced by the v2 frame format at the revision that
//! introduced it and is frozen: any later revision must (a) keep decoding it and
//! (b) — because v2 streams are canonical and deterministic (no wall-clock fields
//! on the wire, deterministic compression decisions) — reproduce it byte for byte
//! from the same inputs. If a layout change ever breaks this test, bump the stream
//! version and add a new vector instead of editing this one: v2 streams live on
//! disk next to outsourced datasets and must stay loadable.
//!
//! The vector uses the deterministic-AES backend so the ciphertext depends only on
//! the key material, not on any RNG implementation detail.

use f2_core::{DetScheme, Scheme};
use f2_crypto::MasterKey;
use f2_engine::stream::{decrypt_streaming, load_streamed_outcome};
use f2_engine::{Engine, EngineConfig};
use f2_io::TableSource;
use f2_relation::{table, Table};

/// Version-2 frame stream: 5 rows of the reference table, deterministic-AES
/// backend (`MasterKey::from_seed(2024)`), 2-row chunks, engine seed 2024.
const GOLDEN_V2_STREAM: &str = "\
463257530200050101310000003700000056fa9f072e1100000064657465726d696e69737469632d616573e8070d0002\
020f00240200030000005a69700203000000506f70020201b9000000d800000076b39db3210002021f0002020f008601\
23ea872e825f58d219000000463257530100020200030000005a69700203000000506f70028700000046325753010003\
0200030000005a69700403000000506f7004020f00cc011700000005bc2a53985de68f4fb2ff23acfc6aa220b1160560\
c38f1400000005e792751b06fe3e550021b30ce43146e7931dba1700000005bc2a53985de68f4fb2ff23acfc6aa220b1\
160560c38f1400000005e792751b06fe3e550021b30ce43146e7931dba0201c5000000da000000b55eccc302010f0002\
020f0002040f0002020f0002040f00860142e44376f8761e1619000000463257530100020200030000005a6970020300\
0000506f700289000000463257530100030200030000005a69700403000000506f7004020f00d001170000000516884d\
49e4b175c333873d57551c12db2ee283dd922b160000000555598dadb6f42118c3da81e53abc9f24019cf268a9170000\
00058a704f54bfc84c19e23f5784c9c3e04e476e61d973fc1400000005d4e1f6a92a61ec11e41cacf07a7c112e2bff40\
02018f000000a50000001dde9d4c02020f0002040f0002050f0002040f0002050f00860188cfb117c371380d19000000\
463257530100020200030000005a69700203000000506f700254000000463257530100030200030000005a6970040300\
0000506f7004010f006617000000058a704f54bfc84c19e23f5784c9c3e04e476e61d973fc1400000005d4e1f6a92a61\
ec11e41cacf07a7c112e2bff4003011100000080000000cdcf9e2902030f0002050f0002054f0002058f010000000000\
00000000000076688ae3";

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
        .collect()
}

fn reference_table() -> Table {
    table! {
        ["Zip", "Pop"];
        ["07030", "58"],
        ["07030", "58"],
        ["10001", "8804"],
        ["08540", "31"],
        ["08540", "31"],
    }
}

fn reference_scheme() -> DetScheme {
    DetScheme::new(MasterKey::from_seed(2024))
}

#[test]
fn version_2_stream_stays_decodable() {
    let golden = unhex(GOLDEN_V2_STREAM);
    let scheme = reference_scheme();
    let (outcome, records) = load_streamed_outcome(&scheme, &golden[..]).expect("golden decodes");
    assert_eq!(records.len(), 3);
    assert_eq!(records[0].rows, 0..2);
    assert_eq!(records[2].rows, 4..5);
    assert_eq!(outcome.encrypted.row_count(), 5);
    assert!(scheme.decrypt(&outcome).expect("decrypts").multiset_eq(&reference_table()));

    // The chunk-wise streaming decryptor recovers the same rows.
    let mut rows = 0;
    decrypt_streaming(&scheme, &golden[..], |chunk| {
        rows += chunk.row_count();
        Ok(())
    })
    .expect("streams");
    assert_eq!(rows, 5);
}

#[test]
fn version_2_encoding_is_canonical() {
    // Re-running the same inputs must reproduce the golden bytes exactly — the
    // stream carries no wall-clock or otherwise run-dependent fields.
    let t = reference_table();
    let scheme = reference_scheme();
    let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 2, seed: 2024 }).unwrap();
    let mut stream = Vec::new();
    engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut stream).unwrap();
    assert_eq!(
        stream,
        unhex(GOLDEN_V2_STREAM),
        "v2 stream layout changed — bump the stream version and add a new vector"
    );
}
