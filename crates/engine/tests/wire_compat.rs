//! Wire-format compatibility vectors.
//!
//! These blobs were produced by wire version 1 and are frozen: a reader from any
//! later revision of this workspace must keep decoding them, and (because the
//! encoding is canonical) re-encoding the decoded state must reproduce them byte for
//! byte. If a layout change ever breaks this test, bump [`f2_engine::wire::VERSION`]
//! and add a new vector instead of editing the old one — old state blobs live on
//! disk next to outsourced tables and must stay loadable.

use f2_core::scheme::CellWiseState;
use f2_core::{F2OwnerState, OwnerState, Provenance, RowOrigin};
use f2_engine::persist::{decode_state, encode_state};
use f2_relation::{AttrSet, Attribute, DataType, Schema};

/// Version-1 F² owner-state blob for [`reference_f2_state`].
const GOLDEN_F2_STATE: &str = "463257530100010200030000005a69700203000000506f700002000000010000000000\
0000030000000000000006000000000000000000000000000000000200000000000000000001000000000000000101000000\
000000000301000000000000000400000000000000000100000000000000010000000000000001000000000000000400000000000000";

/// Version-1 cell-wise owner-state blob for the same schema.
const GOLDEN_CELL_WISE_STATE: &str = "463257530100020200030000005a69700203000000506f7000";

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
        .collect()
}

fn reference_schema() -> Schema {
    Schema::new(vec![Attribute::new("Zip", DataType::Text), Attribute::new("Pop", DataType::Int)])
        .expect("valid schema")
}

fn reference_f2_state() -> F2OwnerState {
    let mut provenance = Provenance {
        origins: vec![
            RowOrigin::Real { original_row: 0 },
            RowOrigin::GroupFake { mas_index: 0 },
            RowOrigin::Real { original_row: 1 },
            RowOrigin::ScaleCopy { mas_index: 1 },
            RowOrigin::ConflictCompanion { original_row: 1 },
            RowOrigin::FalsePositive { mas_index: 0 },
        ],
        ..Provenance::default()
    };
    provenance.patches.insert(1, vec![(0, 4)]);
    F2OwnerState {
        provenance,
        mas_sets: vec![AttrSet::from_indices([0]), AttrSet::from_indices([0, 1])],
        plaintext_schema: reference_schema(),
    }
}

#[test]
fn version_1_f2_state_blob_stays_decodable_and_canonical() {
    let golden = unhex(GOLDEN_F2_STATE);
    let loaded = decode_state(&golden).expect("version-1 blob decodes");
    let OwnerState::F2(state) = loaded else { panic!("an F2 owner state") };
    let reference = reference_f2_state();
    assert_eq!(state.provenance, reference.provenance);
    assert_eq!(state.mas_sets, reference.mas_sets);
    assert_eq!(state.plaintext_schema, reference.plaintext_schema);

    // Canonical encoding: re-encoding the decoded state reproduces the golden bytes.
    assert_eq!(encode_state(&OwnerState::F2(reference)).expect("save"), golden);
}

#[test]
fn version_1_cell_wise_state_blob_stays_decodable_and_canonical() {
    let golden = unhex(GOLDEN_CELL_WISE_STATE);
    let loaded = decode_state(&golden).expect("version-1 blob decodes");
    let OwnerState::CellWise(state) = loaded else { panic!("a cell-wise owner state") };
    assert_eq!(state.plaintext_schema, reference_schema());

    let state = OwnerState::CellWise(CellWiseState { plaintext_schema: reference_schema() });
    assert_eq!(encode_state(&state).expect("save"), golden);
}
