//! Streaming outsourcing: encrypt a large relation chunk by chunk into an `F2WS`
//! v2 stream file — the encrypted table *and* the per-chunk owner states in one
//! checksummed file — then play the data owner's second process: a fresh scheme
//! instance that holds nothing but its construction parameters loads the file and
//! recovers the original table exactly.
//!
//! Run with `cargo run --release --example streaming_outsourcing`.

use f2::datagen::Dataset;
use f2::engine::load_streamed_outcome;
use f2::{Engine, EngineConfig, Scheme, TableSource, F2};
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn main() {
    // ── Process 1: the data owner prepares the outsourcing ─────────────────────────
    let data = Dataset::Orders.generate(4_000, 42);
    println!(
        "Plaintext: {} rows × {} attributes ({} bytes)",
        data.row_count(),
        data.arity(),
        data.size_bytes()
    );

    let scheme = F2::builder()
        .alpha(0.5)
        .split_factor(2)
        .seed(2026) // fixed seed + derived master key = the owner's "key file"
        .build()
        .expect("valid parameters");

    // Stream 512-row chunks into a file, one chunk in memory at a time. Chunk seeds
    // derive from the engine seed, so the ciphertext is identical to the in-memory
    // `Engine::encrypt` at any worker count. (F²'s α-security is then flattened per
    // 512-row chunk, not table-wide — see the EngineConfig::chunk_rows docs for the
    // trade-off.)
    let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 512, seed: 2026 })
        .expect("valid engine config");
    // Everything the owner needs later goes into one self-describing stream: the
    // encrypted chunks, each with its owner state, and the encryption report. No key
    // material is inside, but every chunk's owner state is in the clear, and its
    // provenance tells real rows from artificial ones. So the stream stays with the
    // owner; only the encrypted table is outsourced.
    let path = std::env::temp_dir().join("f2_streaming_outsourcing.f2ws");
    let file = BufWriter::new(File::create(&path).expect("create stream file"));
    let run = engine
        .run_streaming(&scheme, &mut TableSource::new(&data), file)
        .expect("streaming encryption");

    println!(
        "\nEncrypted in {} chunks → {} rows ({} artificial):",
        run.chunks.len(),
        run.encrypted_rows,
        run.report.overhead.added_rows(),
    );
    for record in run.chunks.iter().take(4) {
        println!(
            "  chunk {:>2}: rows {:>4}..{:<4} → output {:>4}..{:<4}  {:?}",
            record.index,
            record.rows.start,
            record.rows.end,
            record.output_rows.start,
            record.output_rows.end,
            record.wall,
        );
    }
    println!("  … ({} chunks total)", run.chunks.len());
    println!("\nPersisted stream: {} bytes → {}", run.bytes_written, path.display());
    drop((scheme, run)); // end of "process 1" — nothing in-memory survives

    // ── Process 2: a fresh owner process, later ────────────────────────────────────
    // Rebuild the scheme from the same parameters (in production: read the key file),
    // load the stream, and decrypt.
    let owner =
        F2::builder().alpha(0.5).split_factor(2).seed(2026).build().expect("valid parameters");
    let file = BufReader::new(File::open(&path).expect("open stream file"));
    let (restored, _chunks) = load_streamed_outcome(&owner, file).expect("load stream");
    let recovered = owner.decrypt(&restored).expect("decrypt with restored state");

    assert!(recovered.multiset_eq(&data));
    println!(
        "Recovered {} rows in a fresh process — exact multiset of the original. ✓",
        recovered.row_count()
    );
    std::fs::remove_file(&path).ok();
}
