//! The pluggable encryption-backend API.
//!
//! The paper's evaluation (§5) compares F² against a deterministic AES baseline, a
//! per-cell probabilistic cipher, and Paillier. Each of those is a *scheme*: something
//! that turns a plaintext [`Table`] into an encrypted table plus owner-side secrets,
//! and can invert that transformation. This module abstracts the contract into the
//! [`Scheme`] trait so that the attack harness, the benchmark suite, and applications
//! can be written once against `&dyn Scheme` and run unchanged over every backend —
//! including future ones (sharded, cached, async).
//!
//! * [`Scheme`] — `name` / `encrypt_view` / `decrypt`, the ground-truth row mapping
//!   ([`Scheme::real_rows`]) the α-security experiment needs, and the reseeding hook
//!   the streaming engine drives ([`Scheme::reseeded`]). Each backend encrypts
//!   through one body, [`Scheme::encrypt_view`], which sees a whole table and a
//!   chunk of one alike; [`Scheme::encrypt`] is its provided whole-table wrapper;
//! * [`SchemeOutcome`] — what every backend produces: the encrypted table, its
//!   [`OwnerState`], and an [`EncryptionReport`];
//! * [`OwnerState`] — the two owner-state shapes the backends keep (F²'s provenance
//!   and MAS sets, a cell-wise baseline's schema); per-chunk states fold together
//!   through [`OwnerState::merge`];
//! * [`F2Scheme`] (built fluently via [`F2::builder`]), [`DetScheme`], [`ProbScheme`],
//!   [`PaillierScheme`] — the four backends of the paper.
//!
//! ```
//! use f2_core::{Scheme, F2};
//! use f2_relation::table;
//!
//! let data = table! {
//!     ["Zip", "City"];
//!     ["07030", "Hoboken"],
//!     ["07030", "Hoboken"],
//!     ["10001", "NewYork"],
//! };
//! let scheme = F2::builder().alpha(0.5).split_factor(2).seed(7).build().unwrap();
//! let outcome = scheme.encrypt(&data).unwrap();
//! let recovered = scheme.decrypt(&outcome).unwrap();
//! assert!(recovered.multiset_eq(&data));
//! ```

use crate::config::F2Config;
use crate::encryptor::CtArena;
use crate::report::{EncryptionReport, OverheadBreakdown, StepTimings};
use crate::{F2Error, Result};
use f2_crypto::ciphertext::NONCE_LEN;
use f2_crypto::{
    DeterministicCipher, MasterKey, PaillierCiphertext, PaillierKeyPair, ProbabilisticCipher,
    RandomnessPool,
};
use f2_relation::parallel::{run_parts, threads_for};
use f2_relation::{AttrSet, Record, Schema, Table, TableView, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A pluggable encryption backend: anything that can outsource a table and take it
/// back, whole or chunk by chunk.
///
/// Implementations must satisfy the round-trip law: for every supported table `t`,
/// `decrypt(&encrypt(&t)?)?` is multiset-equal to `t`. (Multiset rather than sequence
/// equality because F² reorders and augments rows; cell-wise backends preserve order.)
///
/// The streaming engine (`f2_engine`) shards a table into row-range chunks and
/// encrypts them concurrently. Two chunks with identical rows would otherwise feed
/// identical RNG streams to the probabilistic ciphers (the per-table fingerprint
/// defense can't tell them apart), so every chunk is encrypted by a
/// [`Scheme::reseeded`] clone whose seed is derived from the engine seed and the chunk
/// index — disjoint nonce domains by construction. After the workers finish, the
/// per-chunk owner states are folded back into one table-level state by
/// [`OwnerState::merge`], so the merged outcome decrypts through the ordinary
/// [`Scheme::decrypt`] of the *original* scheme (decryption never depends on
/// encryption-time seeds).
pub trait Scheme: Send + Sync {
    /// Short stable identifier used in reports and benchmark labels.
    fn name(&self) -> &str;

    /// Encrypt the rows `view` covers, producing the server-visible table plus
    /// owner-side state — the one encryption body of every backend.
    ///
    /// The output depends only on the viewed rows (and the schema), never on the
    /// rest of the parent table or on where the range sits in it: a chunk encrypts
    /// exactly as a standalone table holding the same rows. The engine's
    /// worker-count- and path-independence guarantees rest on this law.
    fn encrypt_view(&self, view: &TableView<'_>) -> Result<SchemeOutcome>;

    /// Encrypt a whole table: [`Scheme::encrypt_view`] over a view of all its rows.
    /// Backends implement `encrypt_view` only, so a table and a chunk of one run
    /// the same body.
    fn encrypt(&self, table: &Table) -> Result<SchemeOutcome> {
        self.encrypt_view(&table.as_view())
    }

    /// Recover the original table from an outcome produced by this scheme.
    ///
    /// **Threads.** Every backend decrypts its rows in contiguous ranges through
    /// [`f2_relation::parallel::run_parts`], under the one thread rule that also
    /// governs a cold columnar index build: a job of fewer than
    /// [`DECRYPT_PARALLEL_MIN_CELLS`] cells (8,192), or one whose caller is a
    /// worker-pool thread ([`f2_relation::parallel::POOL_THREAD_PREFIX`]), runs
    /// on the caller alone; a larger one runs on `min(available_parallelism(),
    /// rows)` threads, the caller among them. The threshold comes from paired
    /// one- and two-thread runs on a 2-vCPU host (see the constant): two threads
    /// gained 1.34–1.65× from 7,168 cells, but only 1.14–1.24× on the 512-row
    /// chunks stream readers decrypt, which stay on one thread. Every thread
    /// count returns the same table, and for a bad cell or row the same error as
    /// one thread does.
    fn decrypt(&self, outcome: &SchemeOutcome) -> Result<Table>;

    /// Ground truth for the frequency-analysis game: `(output_row, original_row)`
    /// pairs for the output rows that carry original tuples. The default covers
    /// cell-wise schemes, where output row `i` is the encryption of input row `i`;
    /// schemes that inject artificial rows (like F²) must override it. Errors on an
    /// outcome this scheme cannot interpret (wrong backend's owner state), mirroring
    /// [`Scheme::decrypt`].
    fn real_rows(&self, outcome: &SchemeOutcome) -> Result<Vec<(usize, usize)>> {
        Ok((0..outcome.encrypted.row_count()).map(|r| (r, r)).collect())
    }

    /// A scheme identical to this one except that its encryption-time randomness is
    /// derived from `seed`. Deterministic backends (no encryption-time randomness)
    /// return an unchanged clone. Key material is shared, never re-derived: a reseeded
    /// scheme's output stays decryptable by the original.
    fn reseeded(&self, seed: u64) -> Box<dyn Scheme>;
}

/// One encrypted chunk's owner state, positioned inside the merged table, as handed to
/// [`OwnerState::merge`].
#[derive(Debug)]
pub struct ChunkState {
    /// Index (in the *original* table) of the chunk's first row.
    pub row_offset: usize,
    /// Index (in the *merged encrypted* table) of the chunk's first output row.
    pub output_offset: usize,
    /// The chunk's own owner state, exactly as its `encrypt` call produced it.
    pub state: OwnerState,
}

/// Deterministic fingerprint of a relation's schema and contents.
///
/// The probabilistic backends fold this into their nonce-RNG seed so that two
/// `encrypt` calls on *different* tables never share a nonce stream (with the PRF
/// cipher `⟨r, F_k(r) ⊕ p⟩`, reusing `r` across tables would XOR-leak plaintext
/// relationships), while re-encrypting the same table stays reproducible per seed.
///
/// Takes the relation as `(schema, rows)` so a chunk of a larger table and a
/// standalone table holding the same rows fingerprint identically — which is what
/// keeps the probabilistic backends to the chunk law of [`Scheme::encrypt_view`].
fn table_fingerprint(schema: &Schema, rows: &[Record]) -> u64 {
    use std::hash::{Hash, Hasher};
    // DefaultHasher with fixed keys: stable within and across runs of this binary.
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    schema.arity().hash(&mut hasher);
    rows.len().hash(&mut hasher);
    for name in schema.names() {
        name.hash(&mut hasher);
    }
    for rec in rows {
        for v in rec.values() {
            v.hash(&mut hasher);
        }
    }
    hasher.finish()
}

/// Result of encrypting one table with any [`Scheme`].
///
/// The parts every backend shares are first-class fields, while backend-specific
/// secrets (provenance, MAS sets, …) live in the [`OwnerState`].
#[derive(Debug)]
pub struct SchemeOutcome {
    /// The encrypted table to be outsourced to the server.
    pub encrypted: Table,
    /// Owner-side state needed for decryption. It says which rows are real, so it
    /// stays with the owner: outsource only [`SchemeOutcome::encrypted`].
    pub state: OwnerState,
    /// Per-step timings and overhead measurements.
    pub report: EncryptionReport,
}

impl SchemeOutcome {
    /// The F²-specific owner state, if this outcome was produced by [`F2Scheme`].
    pub fn f2_state(&self) -> Option<&F2OwnerState> {
        match &self.state {
            OwnerState::F2(state) => Some(state),
            OwnerState::CellWise(_) => None,
        }
    }
}

/// Owner-side state of a [`SchemeOutcome`]: what its backend needs, besides the key,
/// to invert the encryption. The two variants are the only state shapes the backends
/// keep; `f2_engine::persist` holds their wire codec.
#[derive(Debug)]
pub enum OwnerState {
    /// An [`F2Scheme`] outcome's provenance, MAS sets, and plaintext schema.
    F2(F2OwnerState),
    /// A cell-wise baseline's plaintext schema.
    CellWise(CellWiseState),
}

impl OwnerState {
    /// Fold per-chunk owner states (in chunk order) into the owner state of the
    /// concatenated table. Errors on zero chunks, on chunks that disagree on the
    /// plaintext schema, and on chunks of different backends.
    pub fn merge(chunks: Vec<ChunkState>) -> Result<OwnerState> {
        let mut merged = match chunks.first().map(|chunk| &chunk.state) {
            None => return Err(F2Error::UnsupportedInput("cannot merge zero chunk states".into())),
            Some(OwnerState::F2(state)) => OwnerState::F2(F2OwnerState {
                provenance: crate::Provenance::default(),
                mas_sets: Vec::new(),
                plaintext_schema: state.plaintext_schema.clone(),
            }),
            Some(OwnerState::CellWise(state)) => OwnerState::CellWise(state.clone()),
        };
        for chunk in &chunks {
            if chunk.state.plaintext_schema() != merged.plaintext_schema() {
                return Err(F2Error::UnsupportedInput(
                    "chunk owner states disagree on the plaintext schema".into(),
                ));
            }
            match (&mut merged, &chunk.state) {
                (OwnerState::F2(merged), OwnerState::F2(state)) => {
                    merged.append_chunk(state, chunk.row_offset, chunk.output_offset)
                }
                // A cell-wise state is just the schema, already checked above.
                (OwnerState::CellWise(_), OwnerState::CellWise(_)) => {}
                _ => {
                    return Err(F2Error::UnsupportedInput(
                        "chunk owner states come from different backends".into(),
                    ))
                }
            }
        }
        Ok(merged)
    }

    fn plaintext_schema(&self) -> &Schema {
        match self {
            OwnerState::F2(state) => &state.plaintext_schema,
            OwnerState::CellWise(state) => &state.plaintext_schema,
        }
    }
}

/// Owner-side state of an [`F2Scheme`] outcome.
#[derive(Debug, Clone)]
pub struct F2OwnerState {
    /// Row provenance (which output rows are real, and the conflict patches).
    pub provenance: crate::Provenance,
    /// The maximal attribute sets discovered in Step 1.
    pub mas_sets: Vec<AttrSet>,
    /// The plaintext schema, needed to rebuild the original table.
    pub plaintext_schema: Schema,
}

impl F2OwnerState {
    /// Append one chunk's state, whose first row sits at `row_offset` of the
    /// plaintext and `output_offset` of the merged encrypted table.
    fn append_chunk(&mut self, state: &F2OwnerState, row_offset: usize, output_offset: usize) {
        // MAS sets are discovered per chunk; the merged list concatenates them so
        // that each chunk's `mas_index` values stay resolvable after offsetting.
        let mas_offset = self.mas_sets.len();
        self.mas_sets.extend_from_slice(&state.mas_sets);
        // Row indices are chunk-local on both sides: original-row indices shift by
        // the chunk's position in the plaintext, output-row indices by the number
        // of encrypted rows emitted by earlier chunks.
        for origin in &state.provenance.origins {
            self.provenance.origins.push(match *origin {
                crate::RowOrigin::Real { original_row } => {
                    crate::RowOrigin::Real { original_row: original_row + row_offset }
                }
                crate::RowOrigin::ScaleCopy { mas_index } => {
                    crate::RowOrigin::ScaleCopy { mas_index: mas_index + mas_offset }
                }
                crate::RowOrigin::GroupFake { mas_index } => {
                    crate::RowOrigin::GroupFake { mas_index: mas_index + mas_offset }
                }
                crate::RowOrigin::ConflictCompanion { original_row } => {
                    crate::RowOrigin::ConflictCompanion { original_row: original_row + row_offset }
                }
                crate::RowOrigin::FalsePositive { mas_index } => {
                    crate::RowOrigin::FalsePositive { mas_index: mas_index + mas_offset }
                }
            });
        }
        for (original_row, patches) in &state.provenance.patches {
            self.provenance.patches.insert(
                original_row + row_offset,
                patches.iter().map(|&(attr, out_row)| (attr, out_row + output_offset)).collect(),
            );
        }
    }
}

/// Owner-side state shared by the cell-wise baseline schemes: they only need the
/// plaintext schema (every cell is independently invertible with the key).
#[derive(Debug, Clone)]
pub struct CellWiseState {
    /// The plaintext schema to rebuild on decryption.
    pub plaintext_schema: Schema,
}

fn wrong_state(scheme: &str) -> F2Error {
    F2Error::UnsupportedInput(format!(
        "outcome was not produced by the `{scheme}` scheme (owner state type mismatch)"
    ))
}

/// Encrypt a relation cell by cell and package the result as a [`SchemeOutcome`].
///
/// Used by the deterministic and probabilistic backends, for whole tables and for
/// borrowed chunk views alike (the rows come in as a slice, so a view costs no
/// clone). `seal(attr, plaintext, out)` appends the ciphertext of one cell's
/// encoding to `out`. Every cell of the call goes into one [`CtArena`] buffer,
/// reserved up front (each cell is a nonce plus its plaintext), and the output
/// cells are views of it, exactly as F²'s are.
fn encrypt_cell_wise(
    schema: &Schema,
    rows: &[Record],
    mut seal: impl FnMut(usize, &[u8], &mut Vec<u8>),
) -> Result<SchemeOutcome> {
    if schema.arity() == 0 {
        return Err(F2Error::UnsupportedInput("table has no attributes".into()));
    }
    let start = Instant::now();
    let bytes = rows.iter().flat_map(Record::values).map(|v| NONCE_LEN + v.encoded_len()).sum();
    let mut arena = CtArena::with_capacity((rows.len() * schema.arity(), bytes));
    for rec in rows {
        for (attr, v) in rec.values().iter().enumerate() {
            arena.push_with(|plain| v.encode_into(plain), |plain, out| seal(attr, plain, out));
        }
    }
    debug_assert_eq!(arena.size().1, bytes, "every cell is a nonce plus its plaintext");
    cell_wise_outcome(schema, rows.len(), arena, start)
}

/// Package a cell-wise encryption of `rows` rows, whose cells `arena` holds in
/// row-major order, as a [`SchemeOutcome`]. Baselines have no MAX/SYN/FP phases, so
/// the wall time since `start` is recorded under [`StepTimings::sse`] and the
/// overhead breakdown contains no artificial rows.
fn cell_wise_outcome(
    schema: &Schema,
    rows: usize,
    arena: CtArena,
    start: Instant,
) -> Result<SchemeOutcome> {
    let cells = arena.freeze();
    let mut ids = 0u32..;
    let records = (0..rows)
        .map(|_| Record::new(ids.by_ref().take(schema.arity()).map(|id| cells.get(id)).collect()))
        .collect();
    let encrypted = Table::new(schema.encrypted(), records)?;
    let report = EncryptionReport {
        timings: StepTimings { sse: start.elapsed(), ..StepTimings::default() },
        overhead: OverheadBreakdown { original_rows: rows, ..OverheadBreakdown::default() },
        ..EncryptionReport::default()
    };
    Ok(SchemeOutcome {
        encrypted,
        state: OwnerState::CellWise(CellWiseState { plaintext_schema: schema.clone() }),
        report,
    })
}

/// Decryption jobs of at least this many cells split their rows over several
/// threads: the decrypt threshold of the one thread rule of
/// [`f2_relation::parallel`]. A job's cells are the ones it decrypts, its rows
/// times its arity (for F², its real rows).
///
/// Measured on a shared 2-vCPU host, with F² outcomes of one-worker
/// `Engine::encrypt` runs decrypted by a long-lived thread, one thread against two
/// in 31 alternating pairs per size: two threads lost or broke even at 1,792–2,304
/// cells, gained 1.14–1.24× at 3,584–4,608 cells (the 512-row chunks the stream
/// readers decrypt) and 1.34–1.65× at 7,168–28,672 cells. A later set lost 12–17%
/// at 5,376–7,168 cells, when the host lent its second vCPU only in part (two
/// spinning processes got about 1.6 vCPUs then).
/// Splitting costs a job about 60 µs (spawning and joining a scoped thread about
/// 35 µs, `available_parallelism` about 24 µs), so the threshold sits above the
/// 512-row chunks, where that is 8–22% of the job, and the chunks stay on one
/// thread. The merged 72,892 × 7 F² outcome of the 50,000-row Synthetic table
/// (350,000 cells) decrypts in 32 ms on two threads against 60 ms on one, with
/// telemetry off.
pub const DECRYPT_PARALLEL_MIN_CELLS: usize = 1 << 13;

/// Parts per thread of a split decryption: the ranges are short enough that a
/// thread that starts late, or shares its core, takes fewer of them.
const DECRYPT_PARTS_PER_THREAD: usize = 4;

/// Decrypt `rows` rows of `arity` cells each, in row order: `row(i)` is the
/// ciphertext record of row `i`, and `decrypt_cell(attr, cell)` decrypts one of its
/// cells. Contiguous ranges of rows run as the parts of [`run_parts`], on the
/// threads [`threads_for`] grants a job of `rows × arity` cells under
/// [`DECRYPT_PARALLEL_MIN_CELLS`], so one thread runs them all below it and on a
/// pool thread. The first error in row order is returned, whichever thread met
/// it, so every thread count returns the same records or the same error.
pub(crate) fn decrypt_rows<'t>(
    rows: usize,
    arity: usize,
    row: impl Fn(usize) -> &'t Record + Sync,
    decrypt_cell: impl Fn(usize, &Value) -> Result<Value> + Sync,
) -> Result<Vec<Record>> {
    let threads = threads_for(rows * arity, DECRYPT_PARALLEL_MIN_CELLS, rows);
    let part_rows = rows.div_ceil(threads * DECRYPT_PARTS_PER_THREAD).max(1);
    let (parts, _) = run_parts(rows.div_ceil(part_rows), threads, |part| -> Result<_> {
        let start = part * part_rows;
        let mut records = Vec::with_capacity(part_rows);
        for i in start..rows.min(start + part_rows) {
            let mut values = Vec::with_capacity(arity);
            for (attr, cell) in row(i).values().iter().enumerate() {
                values.push(decrypt_cell(attr, cell)?);
            }
            records.push(Record::new(values));
        }
        Ok(records)
    });
    let mut records = Vec::with_capacity(rows);
    for part in parts {
        records.extend(part?);
    }
    Ok(records)
}

/// Decrypt a cell-wise outcome back to the original table, its rows split as
/// [`decrypt_rows`] splits them.
fn decrypt_cell_wise(
    scheme: &str,
    outcome: &SchemeOutcome,
    decrypt_cell: impl Fn(usize, &Value) -> Result<Value> + Sync,
) -> Result<Table> {
    let OwnerState::CellWise(state) = &outcome.state else { return Err(wrong_state(scheme)) };
    let (rows, arity) = (outcome.encrypted.rows(), outcome.encrypted.arity());
    if state.plaintext_schema.arity() != arity {
        return Err(F2Error::UnsupportedInput(
            "owner-state schema arity differs from the encrypted table".into(),
        ));
    }
    let records = decrypt_rows(rows.len(), arity, |i| &rows[i], decrypt_cell)?;
    Ok(Table::new(state.plaintext_schema.clone(), records)?)
}

// ─────────────────────────────── F² ────────────────────────────────────────────────

/// Marker type giving the fluent entry point [`F2::builder`].
#[derive(Debug, Clone, Copy)]
pub struct F2;

impl F2 {
    /// Start building an [`F2Scheme`]:
    ///
    /// ```
    /// use f2_core::F2;
    /// let scheme = F2::builder()
    ///     .alpha(0.2)
    ///     .split_factor(2)
    ///     .seed(7)
    ///     .build()
    ///     .unwrap();
    /// ```
    pub fn builder() -> F2Builder {
        F2Builder::default()
    }
}

/// Fluent builder for [`F2Scheme`], the one way to construct it.
///
/// Defaults match [`F2Config::default`]: α = 0.2, ϖ = 2, seed `0x5eed`, and a master
/// key derived from the seed unless [`F2Builder::master_key`] provides one.
#[derive(Debug, Clone, Default)]
pub struct F2Builder {
    config: F2Config,
    master: Option<MasterKey>,
}

impl F2Builder {
    /// Set the α-security threshold (must lie in `(0, 1]`).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Set the split factor ϖ (must be ≥ 1; 1 disables splitting).
    pub fn split_factor(mut self, split_factor: usize) -> Self {
        self.config.split_factor = split_factor;
        self
    }

    /// Set the RNG seed (nonce generation, fake-value shuffling). Also seeds the
    /// master key unless one is supplied explicitly.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Supply the data owner's master key explicitly instead of deriving it from the
    /// seed.
    pub fn master_key(mut self, master: MasterKey) -> Self {
        self.master = Some(master);
        self
    }

    /// Validate and return just the [`F2Config`].
    pub fn config(&self) -> Result<F2Config> {
        self.config.validate()?;
        Ok(self.config)
    }

    /// Validate the parameters and build the scheme.
    pub fn build(self) -> Result<F2Scheme> {
        let config = self.config()?;
        let master = self.master.unwrap_or_else(|| MasterKey::from_seed(config.seed));
        Ok(F2Scheme { config, master })
    }
}

/// The F² scheme of the paper as a pluggable backend: frequency-hiding and exactly
/// FD-preserving. Built by [`F2::builder`]; `encrypt` runs MAX → SSE → SYN → FP, and
/// `decrypt` rebuilds the original table from the outcome's [`F2OwnerState`].
#[derive(Debug, Clone)]
pub struct F2Scheme {
    config: F2Config,
    master: MasterKey,
}

impl F2Scheme {
    /// The configuration in use.
    pub fn config(&self) -> &F2Config {
        &self.config
    }
}

impl Scheme for F2Scheme {
    fn name(&self) -> &str {
        "f2"
    }

    /// The planner takes an owned `&Table`: a view of a whole table hands over its
    /// parent, and any other range is materialised ([`TableView::to_table`], which
    /// clones the rows; the planner builds the chunk's columnar index from them).
    fn encrypt_view(&self, view: &TableView<'_>) -> Result<SchemeOutcome> {
        if view.parent_range() == (0..view.parent().row_count()) {
            crate::encryptor::encrypt(&self.config, &self.master, view.parent())
        } else {
            crate::encryptor::encrypt(&self.config, &self.master, &view.to_table())
        }
    }

    fn decrypt(&self, outcome: &SchemeOutcome) -> Result<Table> {
        let state = outcome.f2_state().ok_or_else(|| wrong_state(self.name()))?;
        crate::decryptor::recover_original(&self.master, &outcome.encrypted, state)
    }

    fn real_rows(&self, outcome: &SchemeOutcome) -> Result<Vec<(usize, usize)>> {
        let state = outcome.f2_state().ok_or_else(|| wrong_state(self.name()))?;
        Ok(state.provenance.real_rows())
    }

    fn reseeded(&self, seed: u64) -> Box<dyn Scheme> {
        Box::new(F2Scheme { config: F2Config { seed, ..self.config }, master: self.master.clone() })
    }
}

// ─────────────────────────── Deterministic AES baseline ────────────────────────────

/// The paper's deterministic "AES" baseline (Figure 8): every cell is encrypted with a
/// per-attribute deterministic cipher. FDs are trivially preserved; the exact frequency
/// distribution leaks.
#[derive(Debug, Clone)]
pub struct DetScheme {
    ciphers_master: MasterKey,
}

impl DetScheme {
    /// Create the baseline from the owner's master key.
    pub fn new(master: MasterKey) -> Self {
        DetScheme { ciphers_master: master }
    }

    fn ciphers(&self, arity: usize) -> Vec<DeterministicCipher> {
        (0..arity)
            .map(|a| DeterministicCipher::new(&self.ciphers_master.deterministic_key(a)))
            .collect()
    }
}

impl Scheme for DetScheme {
    fn name(&self) -> &str {
        "deterministic-aes"
    }

    fn encrypt_view(&self, view: &TableView<'_>) -> Result<SchemeOutcome> {
        let ciphers = self.ciphers(view.arity());
        encrypt_cell_wise(view.schema(), view.rows(), |attr, plain, out| {
            ciphers[attr].append_cell(plain, out);
        })
    }

    fn decrypt(&self, outcome: &SchemeOutcome) -> Result<Table> {
        let ciphers = self.ciphers(outcome.encrypted.arity());
        decrypt_cell_wise(self.name(), outcome, |attr, cell| Ok(ciphers[attr].decrypt_value(cell)?))
    }

    // lint: allow(reseed-uses-seed) — deterministic encryption draws no
    // encryption-time randomness, so there is nothing to reseed
    fn reseeded(&self, _seed: u64) -> Box<dyn Scheme> {
        Box::new(self.clone())
    }
}

// ─────────────────────────── Probabilistic PRF baseline ────────────────────────────

/// The per-cell probabilistic cipher `e = ⟨r, F_k(r) ⊕ p⟩` as a standalone backend:
/// maximal frequency hiding, but FDs are destroyed (every cell becomes unique), which
/// is exactly the trade-off F² resolves.
#[derive(Debug, Clone)]
pub struct ProbScheme {
    master: MasterKey,
    seed: u64,
}

impl ProbScheme {
    /// Create the baseline from the owner's master key and a nonce-RNG seed.
    pub fn new(master: MasterKey, seed: u64) -> Self {
        ProbScheme { master, seed }
    }

    fn ciphers(&self, arity: usize) -> Vec<ProbabilisticCipher> {
        (0..arity).map(|a| ProbabilisticCipher::new(&self.master.attribute_key(a))).collect()
    }
}

impl Scheme for ProbScheme {
    fn name(&self) -> &str {
        "probabilistic-prf"
    }

    fn encrypt_view(&self, view: &TableView<'_>) -> Result<SchemeOutcome> {
        let (schema, rows) = (view.schema(), view.rows());
        let ciphers = self.ciphers(schema.arity());
        // Fold the relation fingerprint into the seed: nonce streams must never
        // repeat across encryptions of different tables (two-time-pad otherwise).
        let mut rng = StdRng::seed_from_u64(self.seed ^ table_fingerprint(schema, rows));
        encrypt_cell_wise(schema, rows, |attr, plain, out| {
            ciphers[attr].append_cell(plain, &mut rng, out);
        })
    }

    fn decrypt(&self, outcome: &SchemeOutcome) -> Result<Table> {
        let ciphers = self.ciphers(outcome.encrypted.arity());
        decrypt_cell_wise(self.name(), outcome, |attr, cell| Ok(ciphers[attr].decrypt_cell(cell)?))
    }

    fn reseeded(&self, seed: u64) -> Box<dyn Scheme> {
        Box::new(ProbScheme::new(self.master.clone(), seed))
    }
}

// ─────────────────────────────── Paillier baseline ─────────────────────────────────

/// Textbook Paillier as a cell-wise backend (the paper's asymmetric probabilistic
/// baseline of Figure 8).
///
/// Each cell's encoding is cut into chunks; each chunk, prefixed with a `0x01` marker
/// byte, is an integer strictly below the modulus, and chunks are framed at the key's
/// fixed ciphertext width, so decryption is exact (no lossy folding). All chunks of a
/// table are encrypted in **one batch** over a per-table
/// [`RandomnessPool`] — the Montgomery-form blinding factors amortise the `rⁿ mod n²`
/// exponentiations, which is also what makes per-chunk encryption cheap for the
/// streaming engine's workers (each chunk is one `encrypt` call, hence one batch).
/// Still orders of magnitude slower than the symmetric backends — that relative cost
/// is the paper's point.
#[derive(Debug, Clone)]
pub struct PaillierScheme {
    keypair: PaillierKeyPair,
    seed: u64,
}

impl PaillierScheme {
    /// Generate a key pair of the given modulus size (≥ 64 bits, so that at least one
    /// plaintext byte fits per chunk) and build the scheme. The seed drives both key
    /// generation and the per-encryption randomness.
    pub fn new(modulus_bits: usize, seed: u64) -> Result<Self> {
        if modulus_bits < 64 {
            return Err(F2Error::UnsupportedInput(format!(
                "Paillier backend needs a modulus of at least 64 bits, got {modulus_bits}"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let keypair = PaillierKeyPair::generate(modulus_bits, &mut rng)?;
        Self::with_keypair(keypair, seed)
    }

    /// Build the scheme around an existing key pair. Rejects keys whose modulus is too
    /// small to embed even one plaintext byte per chunk (the same invariant
    /// [`PaillierScheme::new`] enforces via its 64-bit floor).
    pub fn with_keypair(keypair: PaillierKeyPair, seed: u64) -> Result<Self> {
        if keypair.public().plaintext_chunk_size() == 0 {
            return Err(F2Error::UnsupportedInput(format!(
                "Paillier modulus of {} bits is too small to carry cell data",
                keypair.public().modulus().bits()
            )));
        }
        Ok(PaillierScheme { keypair, seed })
    }

    /// The key pair in use.
    pub fn keypair(&self) -> &PaillierKeyPair {
        &self.keypair
    }

    /// Cut a plaintext byte stream into marker-prefixed integer messages strictly
    /// below the modulus, appending them to `out`; returns how many messages the
    /// stream produced. The messages of a whole table are collected first and
    /// encrypted in one [`f2_crypto::PaillierPublicKey::encrypt_batch`] call, so the
    /// blinding exponentiations amortise across the table (or, under the streaming
    /// engine, across each chunk a worker encrypts).
    fn stream_messages(&self, stream: &[u8], out: &mut Vec<f2_crypto::BigUint>) -> usize {
        let chunk_size = self.keypair.public().plaintext_chunk_size();
        let before = out.len();
        for chunk in stream.chunks(chunk_size) {
            // 0x01 marker keeps leading zero bytes of the chunk alive through the
            // integer round-trip and guarantees the message is non-zero.
            let mut message = Vec::with_capacity(chunk.len() + 1);
            message.push(0x01);
            message.extend_from_slice(chunk);
            out.push(f2_crypto::BigUint::from_bytes_be(&message));
        }
        out.len() - before
    }

    /// Batch-encrypt the collected messages through a pool sized for the batch
    /// (never more base factors than messages, at most the pool default). An empty
    /// batch — e.g. the engine's empty-chunk path — skips pool construction
    /// entirely, since seeding one costs two full exponentiations.
    fn encrypt_messages(
        &self,
        messages: &[f2_crypto::BigUint],
        rng: &mut StdRng,
    ) -> Result<Vec<PaillierCiphertext>> {
        if messages.is_empty() {
            return Ok(Vec::new());
        }
        let size = messages.len().min(RandomnessPool::DEFAULT_SIZE);
        let mut pool = RandomnessPool::new(self.keypair.public(), size, rng);
        Ok(self.keypair.public().encrypt_batch(messages, &mut pool)?)
    }

    /// Append a run of ciphertexts to `out` as fixed-width frames.
    fn append_frames(ciphers: &[PaillierCiphertext], width: usize, out: &mut Vec<u8>) {
        for c in ciphers {
            let bytes = c.to_bytes_be();
            debug_assert!(bytes.len() <= width);
            out.resize(out.len() + width - bytes.len(), 0);
            out.extend_from_slice(&bytes);
        }
    }

    /// Inverse of the [`PaillierScheme::stream_messages`] → `encrypt_batch` →
    /// [`PaillierScheme::append_frames`] pipeline: decrypt a sequence of fixed-width
    /// frames back to the original byte stream.
    fn decrypt_stream(&self, bytes: &[u8]) -> Result<Vec<u8>> {
        let width = self.keypair.public().ciphertext_width();
        if width == 0 || !bytes.len().is_multiple_of(width) {
            return Err(F2Error::UnsupportedInput(format!(
                "Paillier payload of {} bytes is not a multiple of the {width}-byte frame",
                bytes.len()
            )));
        }
        let mut stream = Vec::new();
        for frame in bytes.chunks(width) {
            let message = self.keypair.decrypt(&PaillierCiphertext::from_bytes_be(frame))?;
            let message_bytes = message.to_bytes_be();
            match message_bytes.split_first() {
                Some((0x01, chunk)) => stream.extend_from_slice(chunk),
                _ => {
                    return Err(F2Error::UnsupportedInput(
                        "Paillier chunk lost its marker byte (wrong key or corrupt cell)".into(),
                    ))
                }
            }
        }
        Ok(stream)
    }

    /// Per-cell framing: each cell's encoding is chunked on its own; every chunk of
    /// the relation is then encrypted in one batch through a shared blinding pool,
    /// and each cell's frames are appended to one [`CtArena`] buffer, whose views
    /// are the output cells. Rows come in as a borrowed slice, so whole tables and
    /// chunk views share this path clone-free.
    fn encrypt_per_cell(&self, schema: &Schema, rows: &[Record]) -> Result<SchemeOutcome> {
        let arity = schema.arity();
        if arity == 0 {
            return Err(F2Error::UnsupportedInput("table has no attributes".into()));
        }
        let width = self.keypair.public().ciphertext_width();
        let mut rng = StdRng::seed_from_u64(self.seed ^ table_fingerprint(schema, rows));
        let start = Instant::now();
        let mut messages = Vec::new();
        let mut cell_counts = Vec::with_capacity(rows.len() * arity);
        let mut plain = Vec::new();
        for v in rows.iter().flat_map(Record::values) {
            plain.clear();
            v.encode_into(&mut plain);
            cell_counts.push(self.stream_messages(&plain, &mut messages));
        }
        let ciphers = self.encrypt_messages(&messages, &mut rng)?;
        let mut arena = CtArena::with_capacity((cell_counts.len(), ciphers.len() * width));
        let mut rest = &ciphers[..];
        for count in cell_counts {
            let (cell, tail) = rest.split_at(count);
            arena.push_with(|_| {}, |_, out| Self::append_frames(cell, width, out));
            rest = tail;
        }
        cell_wise_outcome(schema, rows.len(), arena, start)
    }

    fn decrypt_cell(&self, cell: &Value) -> Result<Value> {
        let bytes = cell.as_bytes().ok_or_else(|| {
            F2Error::UnsupportedInput("Paillier cell is not a byte string".into())
        })?;
        let encoding = self.decrypt_stream(bytes)?;
        Value::decode(&encoding).ok_or_else(|| {
            F2Error::UnsupportedInput("decrypted Paillier cell does not decode".into())
        })
    }
}

impl Scheme for PaillierScheme {
    fn name(&self) -> &str {
        "paillier"
    }

    fn encrypt_view(&self, view: &TableView<'_>) -> Result<SchemeOutcome> {
        self.encrypt_per_cell(view.schema(), view.rows())
    }

    fn decrypt(&self, outcome: &SchemeOutcome) -> Result<Table> {
        decrypt_cell_wise(self.name(), outcome, |_, cell| self.decrypt_cell(cell))
    }

    fn reseeded(&self, seed: u64) -> Box<dyn Scheme> {
        Box::new(PaillierScheme { keypair: self.keypair.clone(), seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_relation::table;

    fn fixture() -> Table {
        table! {
            ["Zip", "City", "Name"];
            ["07030", "Hoboken", "alice"],
            ["07030", "Hoboken", "bob"],
            ["10001", "NewYork", "carol"],
            ["10001", "NewYork", "dave"],
            ["08540", "Princeton", "erin"],
        }
    }

    fn assert_roundtrip(scheme: &dyn Scheme, table: &Table) {
        let outcome = scheme.encrypt(table).unwrap();
        for (_, rec) in outcome.encrypted.iter() {
            for v in rec.values() {
                assert!(v.is_bytes(), "{}: cell not ciphertext", scheme.name());
            }
        }
        let recovered = scheme.decrypt(&outcome).unwrap();
        assert!(recovered.multiset_eq(table), "{}: bad roundtrip", scheme.name());
    }

    #[test]
    fn all_backends_roundtrip_the_fixture() {
        let t = fixture();
        let master = MasterKey::from_seed(5);
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(F2::builder().alpha(0.5).seed(5).build().unwrap()),
            Box::new(DetScheme::new(master.clone())),
            Box::new(ProbScheme::new(master, 5)),
            Box::new(PaillierScheme::new(64, 5).unwrap()),
        ];
        for scheme in &schemes {
            assert_roundtrip(scheme.as_ref(), &t);
        }
    }

    #[test]
    fn builder_validates() {
        assert!(F2::builder().alpha(0.0).build().is_err());
        assert!(F2::builder().alpha(1.5).build().is_err());
        assert!(F2::builder().split_factor(0).build().is_err());
        let scheme = F2::builder().alpha(0.25).split_factor(3).seed(9).build().unwrap();
        assert_eq!(scheme.config().alpha, 0.25);
        assert_eq!(scheme.config().split_factor, 3);
        assert_eq!(scheme.config().seed, 9);
    }

    #[test]
    fn f2_real_rows_follow_provenance() {
        let t = fixture();
        let scheme = F2::builder().alpha(0.5).build().unwrap();
        let outcome = scheme.encrypt(&t).unwrap();
        let real = scheme.real_rows(&outcome).unwrap();
        assert_eq!(real.len(), t.row_count());
        let state = outcome.f2_state().unwrap();
        assert_eq!(real, state.provenance.real_rows());
        assert!(!state.mas_sets.is_empty());
    }

    #[test]
    fn cell_wise_real_rows_are_identity() {
        let t = fixture();
        let scheme = DetScheme::new(MasterKey::from_seed(1));
        let outcome = scheme.encrypt(&t).unwrap();
        let real = scheme.real_rows(&outcome).unwrap();
        assert_eq!(real, (0..t.row_count()).map(|r| (r, r)).collect::<Vec<_>>());
    }

    #[test]
    fn mismatched_owner_state_is_rejected() {
        let t = fixture();
        let det = DetScheme::new(MasterKey::from_seed(1));
        let f2 = F2::builder().seed(1).build().unwrap();
        let det_outcome = det.encrypt(&t).unwrap();
        let f2_outcome = f2.encrypt(&t).unwrap();
        assert!(f2.decrypt(&det_outcome).is_err());
        assert!(det.decrypt(&f2_outcome).is_err());
        // real_rows fails loudly on a foreign outcome instead of claiming an empty
        // (spuriously "secure") ground truth.
        assert!(f2.real_rows(&det_outcome).is_err());
        assert!(det_outcome.f2_state().is_none());
        assert!(f2_outcome.f2_state().is_some());
    }

    #[test]
    fn prob_scheme_nonce_streams_differ_across_tables() {
        // Regression: with the PRF cipher ⟨r, F_k(r) ⊕ p⟩, reusing the nonce stream
        // across two encrypt() calls on different tables would XOR-leak plaintexts.
        let scheme = ProbScheme::new(MasterKey::from_seed(6), 6);
        let a = table! { ["A"]; ["left"] };
        let b = table! { ["A"]; ["right"] };
        let cell = |t: &Table| {
            let out = scheme.encrypt(t).unwrap();
            out.encrypted.cell(0, 0).unwrap().as_bytes().unwrap().to_vec()
        };
        let (ca, cb) = (cell(&a), cell(&b));
        assert_ne!(&ca[..16], &cb[..16], "nonce reused across tables");
        // Same scheme + same table stays reproducible.
        assert_eq!(cell(&a), cell(&a));
    }

    #[test]
    fn reseeding_keeps_outcomes_decryptable_by_the_original_scheme() {
        let t = fixture();
        let master = MasterKey::from_seed(12);
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(F2::builder().alpha(0.5).seed(12).master_key(master.clone()).build().unwrap()),
            Box::new(DetScheme::new(master.clone())),
            Box::new(ProbScheme::new(master, 12)),
            Box::new(PaillierScheme::new(64, 12).unwrap()),
        ];
        for scheme in &schemes {
            let outcome = scheme.reseeded(0xfeed).encrypt(&t).unwrap();
            let recovered = scheme.decrypt(&outcome).unwrap();
            assert!(recovered.multiset_eq(&t), "{}: reseeded outcome lost rows", scheme.name());
        }
        // Reseeding actually changes probabilistic nonce streams.
        let prob = ProbScheme::new(MasterKey::from_seed(12), 12);
        let a = prob.reseeded(1).encrypt(&t).unwrap();
        let b = prob.reseeded(2).encrypt(&t).unwrap();
        assert_ne!(a.encrypted, b.encrypted);
        // …and a reseeded scheme is the one constructed with that seed.
        let c = ProbScheme::new(MasterKey::from_seed(12), 1).encrypt(&t).unwrap();
        assert_eq!(a.encrypted, c.encrypted);
    }

    #[test]
    fn encrypt_view_is_byte_identical_to_encrypting_the_materialised_chunk() {
        let t = fixture();
        let master = MasterKey::from_seed(21);
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(F2::builder().alpha(0.5).seed(21).master_key(master.clone()).build().unwrap()),
            Box::new(DetScheme::new(master.clone())),
            Box::new(ProbScheme::new(master, 21)),
            Box::new(PaillierScheme::new(64, 21).unwrap()),
        ];
        for scheme in &schemes {
            for range in [0..t.row_count(), 1..4, 2..2, 0..1] {
                let view = t.view(range.clone()).unwrap();
                let standalone =
                    Table::new(t.schema().clone(), t.rows()[range.clone()].to_vec()).unwrap();
                if standalone.is_empty() {
                    continue; // schemes accept empty tables; nothing to compare cell-wise
                }
                let via_view = scheme.encrypt_view(&view).unwrap();
                let via_table = scheme.encrypt(&standalone).unwrap();
                assert_eq!(
                    via_view.encrypted,
                    via_table.encrypted,
                    "{}: view path diverged on {range:?}",
                    scheme.name()
                );
                // The view outcome decrypts through the ordinary path.
                assert!(scheme.decrypt(&via_view).unwrap().multiset_eq(&standalone));
            }
        }
    }

    #[test]
    fn owner_state_merge_validates_inputs() {
        let t = fixture();
        let f2 = F2::builder().seed(3).build().unwrap();
        let det = DetScheme::new(MasterKey::from_seed(3));
        assert!(OwnerState::merge(vec![]).is_err());
        // States of different backends are rejected, not misinterpreted.
        let chunk = |state| ChunkState { row_offset: 0, output_offset: 0, state };
        let mixed =
            vec![chunk(f2.encrypt(&t).unwrap().state), chunk(det.encrypt(&t).unwrap().state)];
        assert!(OwnerState::merge(mixed).is_err());
        let mixed =
            vec![chunk(det.encrypt(&t).unwrap().state), chunk(f2.encrypt(&t).unwrap().state)];
        assert!(OwnerState::merge(mixed).is_err());
    }

    #[test]
    fn f2_merged_chunk_states_offset_rows_and_mas_indices() {
        let t = fixture();
        let scheme = F2::builder().alpha(0.5).seed(6).build().unwrap();
        let chunk_a = scheme.reseeded(1).encrypt(&t).unwrap();
        let chunk_b = scheme.reseeded(2).encrypt(&t).unwrap();
        let a_rows = chunk_a.encrypted.row_count();
        let a_mas = chunk_a.f2_state().unwrap().mas_sets.len();
        let merged = OwnerState::merge(vec![
            ChunkState { row_offset: 0, output_offset: 0, state: chunk_a.state },
            ChunkState { row_offset: t.row_count(), output_offset: a_rows, state: chunk_b.state },
        ])
        .unwrap();
        let OwnerState::F2(state) = merged else { panic!("an F² owner state") };
        assert_eq!(state.mas_sets.len(), 2 * a_mas);
        let real = crate::Provenance {
            origins: state.provenance.origins.clone(),
            patches: state.provenance.patches.clone(),
        }
        .real_rows();
        // Both chunks contribute every original row exactly once, shifted.
        let mut originals: Vec<usize> = real.iter().map(|&(_, orig)| orig).collect();
        originals.sort_unstable();
        assert_eq!(originals, (0..2 * t.row_count()).collect::<Vec<_>>());
    }

    #[test]
    fn paillier_rejects_tiny_moduli_and_handles_long_values() {
        assert!(PaillierScheme::new(32, 1).is_err());
        // The escape-hatch constructor enforces the same payload invariant.
        let mut rng = StdRng::seed_from_u64(1);
        let tiny = f2_crypto::PaillierKeyPair::generate(16, &mut rng).unwrap();
        assert!(PaillierScheme::with_keypair(tiny, 1).is_err());
        let scheme = PaillierScheme::new(64, 1).unwrap();
        let t = table! {
            ["Long", "Short"];
            ["a-rather-long-text-value-spanning-many-chunks", "x"],
            ["", "y"],
        };
        assert_roundtrip(&scheme, &t);
    }

    #[test]
    fn baseline_reports_record_cell_time_only() {
        let t = fixture();
        let outcome = DetScheme::new(MasterKey::from_seed(3)).encrypt(&t).unwrap();
        assert_eq!(outcome.report.overhead.original_rows, t.row_count());
        assert_eq!(outcome.report.overhead.added_rows(), 0);
        assert_eq!(outcome.report.timings.total(), outcome.report.timings.sse);
        assert_eq!(outcome.encrypted.row_count(), t.row_count());
    }

    #[test]
    fn empty_arity_rejected_everywhere() {
        let empty = Table::empty(Schema::new(vec![]).unwrap());
        let master = MasterKey::from_seed(2);
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(F2::builder().build().unwrap()),
            Box::new(DetScheme::new(master.clone())),
            Box::new(ProbScheme::new(master, 2)),
            Box::new(PaillierScheme::new(64, 2).unwrap()),
        ];
        for scheme in &schemes {
            assert!(scheme.encrypt(&empty).is_err(), "{}", scheme.name());
        }
    }
}
