//! Cached telemetry handles for the service.
//!
//! Admission, shedding, deadlines, panics, and drain each get a counter so an
//! operator can read the service's health from one Prometheus scrape: a
//! rising `f2_server_shed_total` means the admission queue is past its
//! high-water mark, `f2_server_deadline_expired_total` means workers are too
//! slow for the configured deadline, `f2_server_worker_panics_total` means
//! jobs are being parked resumable. The queue-depth gauge and the request
//! latency histogram give the load picture between those events.

use f2_obs::{Counter, Gauge, Histogram, Unit};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Help text for the request counter; the per-tenant labeled samples register
/// into the same family, so they must carry the same help string.
const REQUESTS_HELP: &str = "Requests dispatched by the service.";

/// Connections the service accepted (shed connections included).
pub(crate) fn connections_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        f2_obs::global().counter(
            "f2_server_connections_total",
            "Connections accepted by the service.",
            &[],
        )
    })
}

/// Requests the service dispatched (errors included).
pub(crate) fn requests_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| f2_obs::global().counter("f2_server_requests_total", REQUESTS_HELP, &[]))
}

/// Connections rejected with `Overloaded` past the admission high-water mark.
pub(crate) fn shed_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        f2_obs::global().counter(
            "f2_server_shed_total",
            "Connections shed with a typed Overloaded reply.",
            &[],
        )
    })
}

/// Requests whose per-request deadline fired before the reply was ready.
pub(crate) fn deadline_expired_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        f2_obs::global().counter(
            "f2_server_deadline_expired_total",
            "Requests cut off by the per-request deadline.",
            &[],
        )
    })
}

/// Connections that completed during a graceful drain.
pub(crate) fn drained_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        f2_obs::global().counter(
            "f2_server_drained_total",
            "Connections drained to completion during shutdown.",
            &[],
        )
    })
}

/// Request handlers caught panicking; the touched job was parked resumable.
pub(crate) fn worker_panics_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        f2_obs::global().counter(
            "f2_server_worker_panics_total",
            "Request handlers that panicked (job parked resumable).",
            &[],
        )
    })
}

/// Connections waiting in the admission queue right now.
pub(crate) fn queue_depth() -> &'static Gauge {
    static G: OnceLock<Gauge> = OnceLock::new();
    G.get_or_init(|| {
        f2_obs::global().gauge(
            "f2_server_queue_depth",
            "Connections waiting in the admission queue.",
            &[],
        )
    })
}

/// End-to-end request latency (decode → dispatch → reply encoded).
pub(crate) fn request_seconds() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| {
        f2_obs::global().histogram(
            "f2_server_request_seconds",
            "Wall-clock latency per request, decode through reply.",
            &[],
            Unit::Seconds,
        )
    })
}

/// Requests slower than the configured slow-request threshold.
pub(crate) fn slow_requests_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        f2_obs::global().counter(
            "f2_server_slow_requests_total",
            "Requests slower than the slow-request threshold.",
            &[],
        )
    })
}

/// HTTP scrape requests served, by route (`other` for unroutable paths).
pub(crate) fn http_requests_total(route: &'static str) -> Counter {
    f2_obs::global().counter(
        "f2_server_http_requests_total",
        "HTTP scrape requests served, by route.",
        &[("route", route)],
    )
}

/// Per-tenant counter handles. Tenants past the cardinality cap share the
/// `tenant="_other"` overflow sample.
pub(crate) struct TenantMetrics {
    /// Requests attributed to the tenant.
    pub(crate) requests: Counter,
    /// Plaintext rows the tenant's appends carried.
    pub(crate) rows: Counter,
    /// Encrypted stream bytes written for the tenant.
    pub(crate) stream_bytes: Counter,
}

/// Look up (or register) the per-tenant handles for `tenant`, with at most
/// `cap` distinct tenant labels before new tenants fold into `_other`.
///
/// The request counter registers labeled samples into the same
/// `f2_server_requests_total` family as the unlabeled total, so one scrape
/// shows both the service-wide count and its per-tenant breakdown.
pub(crate) fn tenant_metrics(tenant: &str, cap: usize) -> TenantMetrics {
    static CACHE: OnceLock<Mutex<HashMap<String, TenantMetrics>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(PoisonError::into_inner);
    let key = if map.contains_key(tenant) || map.len() < cap { tenant } else { "_other" };
    let entry = map.entry(key.to_string()).or_insert_with(|| {
        let reg = f2_obs::global();
        TenantMetrics {
            requests: reg.counter("f2_server_requests_total", REQUESTS_HELP, &[("tenant", key)]),
            rows: reg.counter(
                "f2_server_tenant_rows_total",
                "Plaintext rows appended, by tenant.",
                &[("tenant", key)],
            ),
            stream_bytes: reg.counter(
                "f2_server_tenant_stream_bytes_total",
                "Encrypted stream bytes written, by tenant.",
                &[("tenant", key)],
            ),
        }
    });
    TenantMetrics {
        requests: entry.requests.clone(),
        rows: entry.rows.clone(),
        stream_bytes: entry.stream_bytes.clone(),
    }
}

/// Touch every unlabeled server-family handle so a scrape taken before the
/// first request still lists them (at zero). The HTTP listener calls this at
/// bind.
pub(crate) fn register_server_families() {
    let _ = connections_total();
    let _ = requests_total();
    let _ = shed_total();
    let _ = deadline_expired_total();
    let _ = drained_total();
    let _ = worker_panics_total();
    let _ = queue_depth();
    let _ = request_seconds();
    let _ = slow_requests_total();
    for route in ["metrics", "metrics.json", "healthz", "tracez", "other"] {
        let _ = http_requests_total(route);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_past_the_label_cap_fold_into_other() {
        // The tenant cache is shared by the whole process, so other tests may
        // have labeled tenants already: whatever they did, at most `cap` of
        // these 40 get a label of their own, and the rest share `_other`.
        let cap = 32;
        let tenants: Vec<String> = (0..40).map(|i| format!("label-cap-probe-{i}")).collect();
        for tenant in &tenants {
            tenant_metrics(tenant, cap).rows.add(1);
        }
        // Sample lines read `f2_server_tenant_rows_total{tenant="…"} <rows>`.
        let exposition = f2_obs::global().prometheus_string();
        let samples: Vec<(&str, f64)> = exposition
            .lines()
            .filter_map(|line| line.strip_prefix("f2_server_tenant_rows_total{tenant=\""))
            .filter_map(|rest| {
                let (label, rows) = rest.split_once("\"} ")?;
                Some((label, rows.parse().ok()?))
            })
            .collect();
        let labels: Vec<&str> = samples.iter().map(|&(label, _)| label).collect();
        let folded = tenants.iter().filter(|t| !labels.contains(&t.as_str())).count();
        assert!(folded >= 8, "only {folded} of 40 tenants folded into _other");
        assert!(labels.contains(&"_other"), "no _other sample: {labels:?}");
        let own = labels.iter().filter(|&&l| l != "_other").count();
        assert!(own <= cap, "{own} tenant labels exceed the cap of {cap}");
        let other = samples.iter().find(|&&(label, _)| label == "_other").map(|&(_, rows)| rows);
        assert!(other.unwrap_or(0.0) >= 8.0, "_other counted {other:?} rows");
    }
}
