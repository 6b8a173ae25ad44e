//! Backend-conformance suite for the pluggable [`Scheme`] API.
//!
//! Every backend must satisfy the same contract: `decrypt(encrypt(t))` is
//! multiset-equal to `t`, every ciphertext cell is an opaque byte string, no
//! plaintext value survives in the encrypted table, and the same rows encrypt to the
//! same bytes whether they are a whole table or a chunk of a larger one (the chunk
//! law of `Scheme::encrypt_view`). The F² backend is swept across
//! the (α ∈ {1.0, 0.5, 0.2}) × (ϖ ∈ {1, 2, 3}) configuration grid; the baselines
//! (deterministic AES, probabilistic PRF, Paillier) take no α/ϖ, so they are checked
//! once per fixture. The suite runs on hand-written `table!` fixtures and on all
//! three generated datasets.

use f2::crypto::MasterKey;
use f2::engine::persist::encode_state;
use f2::relation::table;
use f2::{DetScheme, PaillierScheme, ProbScheme, Scheme, SchemeOutcome, Table, F2};
use f2_datagen::Dataset;

/// Hand-written fixtures: FD-rich, skewed, and heterogeneous value shapes.
fn fixtures() -> Vec<Table> {
    vec![
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
        // Skewed single-MAS table (the frequency-analysis target shape).
        table! {
            ["A", "B"];
            ["a1", "b1"], ["a1", "b1"], ["a1", "b1"], ["a1", "b1"], ["a1", "b1"],
            ["a2", "b2"], ["a2", "b2"],
            ["a3", "b3"],
        },
        // Overlapping-MAS table (the paper's §3.3.2 running example).
        table! {
            ["A", "B", "C"];
            ["a3", "b2", "c1"],
            ["a1", "b2", "c1"],
            ["a2", "b2", "c1"],
            ["a2", "b2", "c2"],
            ["a3", "b2", "c2"],
            ["a1", "b1", "c3"],
        },
    ]
}

/// Small slices of the generated datasets (all value types: Int, Text, Decimal, Date).
fn datagen_tables(rows: usize) -> Vec<(Table, &'static str)> {
    [Dataset::Orders, Dataset::Customer, Dataset::Synthetic]
        .into_iter()
        .map(|d| (d.generate(rows, 77), d.name()))
        .collect()
}

/// The conformance contract every backend must satisfy on every table.
fn assert_conformance(scheme: &dyn Scheme, table: &Table, label: &str) {
    let outcome = scheme
        .encrypt(table)
        .unwrap_or_else(|e| panic!("{}: encrypt failed on {label}: {e}", scheme.name()));
    // 1. Every cell of the outsourced table is opaque ciphertext…
    let plain_values = table.all_values();
    for (_, rec) in outcome.encrypted.iter() {
        for v in rec.values() {
            assert!(v.is_bytes(), "{}: plaintext cell leaked on {label}", scheme.name());
            // 2. …and no plaintext value survives verbatim.
            assert!(
                !plain_values.contains(v),
                "{}: plaintext value survived encryption on {label}",
                scheme.name()
            );
        }
    }
    // 3. The owner recovers the exact original multiset of rows.
    let recovered = scheme
        .decrypt(&outcome)
        .unwrap_or_else(|e| panic!("{}: decrypt failed on {label}: {e}", scheme.name()));
    assert!(
        recovered.multiset_eq(table),
        "{}: roundtrip lost or fabricated rows on {label}",
        scheme.name()
    );
    // 4. The ground-truth row mapping points at real rows of both tables.
    for (out_row, orig_row) in scheme.real_rows(&outcome).expect("matching outcome") {
        assert!(out_row < outcome.encrypted.row_count());
        assert!(orig_row < table.row_count());
    }
    // 5. The chunk law: the same rows as the second half of a larger table encrypt
    // exactly as the standalone table (for F², the range branch of `encrypt_view`
    // against its whole-table branch).
    let n = table.row_count();
    let mut wider = table.clone();
    wider.append(table.clone()).expect("same schema");
    let chunk = scheme
        .encrypt_view(&wider.view(n..2 * n).expect("the second half is in range"))
        .unwrap_or_else(|e| panic!("{}: chunk encrypt failed on {label}: {e}", scheme.name()));
    assert_eq!(chunk.encrypted, outcome.encrypted, "{}: chunk law on {label}", scheme.name());
    assert_eq!(
        encode_state(&chunk.state).expect("state encodes"),
        encode_state(&outcome.state).expect("state encodes"),
        "{}: chunk owner state on {label}",
        scheme.name()
    );
}

const ALPHA_GRID: [f64; 3] = [1.0, 0.5, 0.2];
const SPLIT_GRID: [usize; 3] = [1, 2, 3];

#[test]
fn f2_conforms_across_the_alpha_split_grid_on_fixtures() {
    for (i, t) in fixtures().iter().enumerate() {
        for alpha in ALPHA_GRID {
            for split in SPLIT_GRID {
                let scheme = F2::builder()
                    .alpha(alpha)
                    .split_factor(split)
                    .seed(13)
                    .build()
                    .expect("grid point is valid");
                assert_conformance(&scheme, t, &format!("fixture#{i} α={alpha} ϖ={split}"));
            }
        }
    }
}

#[test]
fn f2_conforms_across_the_alpha_split_grid_on_datagen() {
    // 40 rows keeps the 9-point grid × 3 datasets affordable under the debug profile
    // (MAS discovery on the 21-attribute Customer table dominates).
    for (t, name) in datagen_tables(40) {
        for alpha in ALPHA_GRID {
            for split in SPLIT_GRID {
                let scheme = F2::builder()
                    .alpha(alpha)
                    .split_factor(split)
                    .seed(29)
                    .build()
                    .expect("grid point is valid");
                assert_conformance(&scheme, &t, &format!("{name} α={alpha} ϖ={split}"));
            }
        }
    }
}

/// Decrypt `outcome` from only the rows [`OwnerState::select_read_rows`] names,
/// under the state it re-indexes onto them, and check that this recovers what
/// decrypting the whole outcome recovers. Returns the conflict companions read.
fn assert_selected_rows_decrypt_alike(
    scheme: &dyn Scheme,
    outcome: SchemeOutcome,
    label: &str,
) -> usize {
    let whole = scheme.decrypt(&outcome).unwrap_or_else(|e| panic!("{label}: decrypt: {e}"));
    let real: Vec<usize> =
        scheme.real_rows(&outcome).unwrap().iter().map(|&(out, _)| out).collect();
    let SchemeOutcome { encrypted, state, report } = outcome;
    let (rows, state) = state
        .select_read_rows(encrypted.row_count())
        .unwrap_or_else(|e| panic!("{label}: select: {e}"));
    // `None` selects every row. The selection is ascending, holds every real row,
    // and adds only companions.
    let rows = rows.unwrap_or_else(|| (0..encrypted.row_count()).collect());
    assert!(rows.windows(2).all(|pair| pair[0] < pair[1]), "{label}: {rows:?}");
    assert!(real.iter().all(|row| rows.binary_search(row).is_ok()), "{label}");
    let companions = rows.len() - real.len();
    let selected = Table::new(
        encrypted.schema().clone(),
        rows.iter().map(|&row| encrypted.row(row).unwrap().clone()).collect(),
    )
    .unwrap();
    let partial = scheme
        .decrypt(&SchemeOutcome { encrypted: selected, state, report })
        .unwrap_or_else(|e| panic!("{label}: decrypt of the selected rows: {e}"));
    assert_eq!(partial, whole, "{label}: selected rows decrypt differently");
    companions
}

#[test]
fn f2_decrypts_alike_from_only_the_rows_it_reads_across_the_alpha_split_grid() {
    let mut tables: Vec<(Table, String)> =
        fixtures().into_iter().enumerate().map(|(i, t)| (t, format!("fixture#{i}"))).collect();
    tables.extend(datagen_tables(40).into_iter().map(|(t, name)| (t, name.to_string())));
    let mut companions = 0;
    for (t, name) in &tables {
        for alpha in ALPHA_GRID {
            for split in SPLIT_GRID {
                let scheme =
                    F2::builder().alpha(alpha).split_factor(split).seed(13).build().unwrap();
                let outcome = scheme.encrypt(t).unwrap();
                let label = format!("{name} α={alpha} ϖ={split}");
                companions += assert_selected_rows_decrypt_alike(&scheme, outcome, &label);
            }
        }
    }
    assert!(companions > 0, "the grid must exercise conflict patches");
    // Cell-wise states read every row.
    let det = DetScheme::new(MasterKey::from_seed(41));
    let outcome = det.encrypt(&fixtures()[0]).unwrap();
    assert_eq!(assert_selected_rows_decrypt_alike(&det, outcome, "deterministic-aes"), 0);
}

#[test]
fn deterministic_aes_conforms() {
    let scheme = DetScheme::new(MasterKey::from_seed(41));
    for (i, t) in fixtures().iter().enumerate() {
        assert_conformance(&scheme, t, &format!("fixture#{i}"));
    }
    for (t, name) in datagen_tables(90) {
        assert_conformance(&scheme, &t, name);
    }
}

#[test]
fn probabilistic_prf_conforms() {
    let scheme = ProbScheme::new(MasterKey::from_seed(43), 43);
    for (i, t) in fixtures().iter().enumerate() {
        assert_conformance(&scheme, t, &format!("fixture#{i}"));
    }
    for (t, name) in datagen_tables(90) {
        assert_conformance(&scheme, &t, name);
    }
}

#[test]
fn paillier_conforms() {
    // Small modulus and row counts: textbook Paillier on a from-scratch bigint is
    // orders of magnitude slower than the symmetric backends (that asymmetry is the
    // paper's Figure 8), and this test runs under the debug profile.
    let scheme = PaillierScheme::new(64, 47).expect("modulus large enough");
    for (i, t) in fixtures().iter().enumerate() {
        assert_conformance(&scheme, t, &format!("fixture#{i}"));
    }
    for (t, name) in datagen_tables(12) {
        assert_conformance(&scheme, &t, name);
    }
}

#[test]
fn f2_builder_rejects_invalid_parameters() {
    // α must lie in (0, 1].
    assert!(F2::builder().alpha(0.0).build().is_err());
    assert!(F2::builder().alpha(-0.3).build().is_err());
    assert!(F2::builder().alpha(1.0001).build().is_err());
    assert!(F2::builder().alpha(f64::NAN).build().is_err());
    // ϖ must be ≥ 1.
    assert!(F2::builder().split_factor(0).build().is_err());
    // config() surfaces the same validation without building a scheme.
    assert!(F2::builder().alpha(2.0).config().is_err());
    // The boundary values are accepted.
    assert!(F2::builder().alpha(1.0).split_factor(1).build().is_ok());
}

#[test]
fn f2_builder_parameters_reach_the_scheme() {
    let scheme = F2::builder().alpha(0.25).split_factor(3).seed(99).build().unwrap();
    let config = scheme.config();
    assert_eq!(config.alpha, 0.25);
    assert_eq!(config.split_factor, 3);
    assert_eq!(config.seed, 99);
    assert_eq!(config.ecg_size(), 4);
}

#[test]
fn backends_expose_distinct_names() {
    let master = MasterKey::from_seed(1);
    let schemes: Vec<Box<dyn Scheme>> = vec![
        Box::new(F2::builder().build().unwrap()),
        Box::new(DetScheme::new(master.clone())),
        Box::new(ProbScheme::new(master, 1)),
        Box::new(PaillierScheme::new(64, 1).unwrap()),
    ];
    let mut names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
    assert_eq!(names.len(), 4);
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 4, "backend names must be distinct");
}

#[test]
fn f2_decrypt_requires_matching_owner_state() {
    let t = &fixtures()[0];
    let f2 = F2::builder().seed(3).build().unwrap();
    let det = DetScheme::new(MasterKey::from_seed(3));
    let det_outcome = det.encrypt(t).unwrap();
    assert!(f2.decrypt(&det_outcome).is_err());
    let f2_outcome = f2.encrypt(t).unwrap();
    assert!(det.decrypt(&f2_outcome).is_err());
}
