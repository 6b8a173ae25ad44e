//! Multi-tenant job state: who may encrypt (schemes per tenant), where each
//! job's stream lives (pluggable [`StoreProvider`]s), and the checkout
//! discipline that makes a job single-writer without holding any lock across
//! slow work.
//!
//! # Crash-safe tenancy, by construction
//!
//! A job's durable state is its F2WS v2 stream in the [`StreamStore`]: every
//! completed chunk frame already carries the chunk's `OwnerState` blob next
//! to its ciphertext (that is how [`f2_engine::StreamJob`] persists). So
//! "persist the job" is not a step the service can forget — it happened the
//! moment the append's reply was written. Parking a job (after a panic or an
//! engine error) just drops the in-memory handle; the next
//! checkout reopens the store through [`Engine::resume_job`], which truncates
//! any torn tail frame and replays the prefix byte-exactly.
//!
//! Each job gets its own deterministic engine seed,
//! `chunk_seed(service_seed, token)`, so a resume after a full process
//! restart re-derives the exact key schedule the original run used.
//!
//! lint: chunk-seed-authority — the per-job engine seed is derived here, once,
//! in `Sessions::engine_for`; tokens are never reused across jobs
//! (`Sessions::allocate` skips live *and* persisted tokens), so per-job seed
//! domains stay disjoint exactly like per-chunk nonce domains.

use crate::error::{ServerError, ServerResult};
use crate::StreamStore;
use f2_core::Scheme;
use f2_engine::{chunk_seed, Engine, EngineConfig, StreamJob};
use f2_relation::Schema;
use std::collections::HashMap;
use std::io::{Cursor, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A boxed job store, as the session layer handles them.
pub type BoxStore = Box<dyn StreamStore + Send>;

/// Maps tenant names to their encryption schemes (each tenant holds its own
/// key material). `None` means the tenant does not exist.
pub trait SchemeProvider: Send + Sync {
    /// The scheme serving `tenant`, if the tenant is known.
    fn scheme(&self, tenant: &str) -> Option<Arc<dyn Scheme>>;
}

/// A fixed tenant table, built up front. The common provider for tests and
/// the example service.
#[derive(Default)]
pub struct StaticTenants {
    map: HashMap<String, Arc<dyn Scheme>>,
}

impl StaticTenants {
    /// An empty tenant table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `scheme` under `tenant`, replacing any previous registration.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>, scheme: Arc<dyn Scheme>) -> Self {
        self.map.insert(tenant.into(), scheme);
        self
    }
}

impl SchemeProvider for StaticTenants {
    fn scheme(&self, tenant: &str) -> Option<Arc<dyn Scheme>> {
        self.map.get(tenant).map(Arc::clone)
    }
}

/// Where job streams persist. A provider outlives the service instance — a
/// new [`Service`](crate::Service) over the same provider sees the previous
/// instance's jobs, which is what makes restart-resume testable.
pub trait StoreProvider: Send + Sync {
    /// Open (creating if absent) the store for job `token`.
    fn open(&self, token: u64) -> std::io::Result<BoxStore>;

    /// Whether a store for `token` already exists.
    fn exists(&self, token: u64) -> bool;
}

/// In-memory stores, one growable buffer per token. Buffers survive as long
/// as the provider does, so they model durable storage across service
/// restarts without touching disk.
#[derive(Default)]
pub struct MemoryStores {
    map: Mutex<HashMap<u64, Arc<Mutex<Vec<u8>>>>>,
}

impl MemoryStores {
    /// An empty in-memory store set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of job `token`'s stream bytes, if the job has a store.
    #[must_use]
    pub fn snapshot(&self, token: u64) -> Option<Vec<u8>> {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&token)
            .map(|buf| buf.lock().unwrap_or_else(PoisonError::into_inner).clone())
    }
}

/// A cursor over one shared in-memory buffer.
struct SharedBuf {
    buf: Arc<Mutex<Vec<u8>>>,
    pos: u64,
}

impl SharedBuf {
    fn with_cursor<R>(&mut self, f: impl FnOnce(&mut Cursor<&mut Vec<u8>>) -> R) -> R {
        let buf = Arc::clone(&self.buf);
        let mut guard = buf.lock().unwrap_or_else(PoisonError::into_inner);
        let mut cursor = Cursor::new(&mut *guard);
        cursor.set_position(self.pos);
        let out = f(&mut cursor);
        self.pos = cursor.position();
        out
    }
}

impl Read for SharedBuf {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.with_cursor(|c| c.read(out))
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let buf = Arc::clone(&self.buf);
        let mut guard = buf.lock().unwrap_or_else(PoisonError::into_inner);
        // lint: allow(truncating-cast) — in-memory buffer, usize-addressable.
        let pos = self.pos as usize;
        if pos > guard.len() {
            guard.resize(pos, 0);
        }
        let overlap = data.len().min(guard.len().saturating_sub(pos));
        if let Some(slice) = guard.get_mut(pos..pos + overlap) {
            slice.copy_from_slice(&data[..overlap]);
        }
        guard.extend_from_slice(&data[overlap..]);
        self.pos = self.pos.saturating_add(data.len() as u64);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Seek for SharedBuf {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.with_cursor(|c| c.seek(pos))
    }
}

impl StreamStore for SharedBuf {
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        let buf = Arc::clone(&self.buf);
        let mut guard = buf.lock().unwrap_or_else(PoisonError::into_inner);
        // lint: allow(truncating-cast) — in-memory buffer, usize-addressable.
        guard.resize(len as usize, 0);
        Ok(())
    }
}

impl StoreProvider for MemoryStores {
    fn open(&self, token: u64) -> std::io::Result<BoxStore> {
        let buf = Arc::clone(
            self.map.lock().unwrap_or_else(PoisonError::into_inner).entry(token).or_default(),
        );
        Ok(Box::new(SharedBuf { buf, pos: 0 }))
    }

    fn exists(&self, token: u64) -> bool {
        self.map.lock().unwrap_or_else(PoisonError::into_inner).contains_key(&token)
    }
}

/// File-backed stores: one `job-<token>.f2ws` per job under a directory.
pub struct DirStores {
    dir: PathBuf,
}

impl DirStores {
    /// Stores rooted at `dir` (created if missing on first open).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DirStores { dir: dir.into() }
    }

    fn path(&self, token: u64) -> PathBuf {
        self.dir.join(format!("job-{token:016x}.f2ws"))
    }
}

impl StoreProvider for DirStores {
    fn open(&self, token: u64) -> std::io::Result<BoxStore> {
        std::fs::create_dir_all(&self.dir)?;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.path(token))?;
        Ok(Box::new(file))
    }

    fn exists(&self, token: u64) -> bool {
        self.path(token).is_file()
    }
}

/// A job the service holds live in memory, ready for appends.
pub(crate) struct LoadedJob {
    pub(crate) tenant: String,
    pub(crate) scheme: Arc<dyn Scheme>,
    pub(crate) schema: Schema,
    pub(crate) job: StreamJob<BoxStore>,
}

/// The in-memory state of one job token.
enum JobSlot {
    /// Live and idle; the next request checks it out.
    Loaded(Box<LoadedJob>),
    /// A request on some connection holds it right now.
    CheckedOut,
    /// Dropped after a failure; the stream in the store is the
    /// truth. The next checkout reloads via [`Engine::resume_job`].
    Parked { tenant: String, schema: Schema },
}

/// The job table plus token allocation.
pub(crate) struct Sessions {
    jobs: Mutex<HashMap<u64, JobSlot>>,
    next_token: AtomicU64,
    service_seed: u64,
    chunk_rows: usize,
}

/// What `Sessions::checkout` hands back: either the live job, or the facts
/// needed to reload a parked one (the caller does the slow reload off-lock).
pub(crate) enum Checkout {
    Live(Box<LoadedJob>),
    Reload { tenant: String, schema: Schema },
}

impl Sessions {
    pub(crate) fn new(service_seed: u64, chunk_rows: usize) -> Self {
        Sessions {
            jobs: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            service_seed,
            chunk_rows,
        }
    }

    /// The deterministic per-job engine. Seeded by token so a resume — even
    /// after a full process restart — re-derives the original key schedule.
    /// Stream jobs encrypt one chunk at a time, so one worker.
    pub(crate) fn engine_for(&self, token: u64) -> ServerResult<Engine> {
        Engine::new(EngineConfig {
            workers: 1,
            chunk_rows: self.chunk_rows,
            seed: chunk_seed(self.service_seed, token),
        })
        .map_err(ServerError::from)
    }

    /// A token no live job and no persisted store is using.
    pub(crate) fn allocate(&self, stores: &dyn StoreProvider) -> u64 {
        let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let token = self.next_token.fetch_add(1, Ordering::SeqCst);
            if !jobs.contains_key(&token) && !stores.exists(token) {
                return token;
            }
        }
    }

    /// Register a freshly opened job as live.
    pub(crate) fn insert_live(&self, token: u64, job: LoadedJob) {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(token, JobSlot::Loaded(Box::new(job)));
    }

    /// Take exclusive hold of a job. Returns the live job, or the reload
    /// facts for a parked one (the slot is marked checked-out either way).
    /// Unknown tokens are reported as such — a persisted-but-never-loaded job
    /// (service restart) must arrive through a `resume` request, which
    /// carries the tenant and schema the reload needs.
    pub(crate) fn checkout(&self, token: u64) -> ServerResult<Checkout> {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        match jobs.get_mut(&token) {
            None => Err(ServerError::UnknownJob(token)),
            Some(slot @ JobSlot::CheckedOut) => {
                let _ = slot;
                Err(ServerError::JobBusy(token))
            }
            Some(slot) => match std::mem::replace(slot, JobSlot::CheckedOut) {
                JobSlot::Loaded(job) => Ok(Checkout::Live(job)),
                JobSlot::Parked { tenant, schema } => Ok(Checkout::Reload { tenant, schema }),
                JobSlot::CheckedOut => Err(ServerError::JobBusy(token)),
            },
        }
    }

    /// Mark a token checked-out that had no slot yet (restart-resume path).
    /// Fails with `JobBusy` if another connection is already loading it.
    pub(crate) fn claim_for_load(&self, token: u64) -> ServerResult<()> {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        match jobs.get(&token) {
            None => {
                jobs.insert(token, JobSlot::CheckedOut);
                Ok(())
            }
            Some(_) => Err(ServerError::JobBusy(token)),
        }
    }

    /// Return a checked-out job to the live state.
    pub(crate) fn checkin_live(&self, token: u64, job: LoadedJob) {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(token, JobSlot::Loaded(Box::new(job)));
    }

    /// Park a checked-out job: drop the in-memory handle, keep the facts a
    /// reload needs. The persisted stream is already complete up to the last
    /// acknowledged chunk.
    pub(crate) fn park(&self, token: u64, tenant: String, schema: Schema) {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(token, JobSlot::Parked { tenant, schema });
    }

    /// Forget a token entirely (job finished, or a fresh open failed before
    /// the job existed).
    pub(crate) fn remove(&self, token: u64) {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner).remove(&token);
    }
}
