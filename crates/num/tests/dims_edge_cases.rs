//! Edge-case coverage for `mdq_num::radix::Dims`: rejected constructions,
//! exhaustive index/digit round-trips, and overflow behavior at the limits
//! of the index space.

use mdq_num::radix::{Dims, DimsError};

#[test]
fn empty_register_is_rejected() {
    assert_eq!(Dims::new(vec![]), Err(DimsError::Empty));
    assert_eq!(Dims::uniform(0, 3), Err(DimsError::Empty));
}

#[test]
fn zero_and_unit_dimensions_are_rejected() {
    assert_eq!(
        Dims::new(vec![0]),
        Err(DimsError::DimensionTooSmall {
            position: 0,
            dim: 0
        })
    );
    assert_eq!(
        Dims::new(vec![3, 0, 2]),
        Err(DimsError::DimensionTooSmall {
            position: 1,
            dim: 0
        })
    );
    assert_eq!(
        Dims::new(vec![2, 2, 1]),
        Err(DimsError::DimensionTooSmall {
            position: 2,
            dim: 1
        })
    );
    assert_eq!(
        Dims::uniform(4, 1),
        Err(DimsError::DimensionTooSmall {
            position: 0,
            dim: 1
        })
    );
}

#[test]
fn error_messages_name_the_offender() {
    let err = Dims::new(vec![3, 1]).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("position 1"), "message: {text}");
    assert!(text.contains("dimension 1"), "message: {text}");
    assert!(Dims::new(vec![]).unwrap_err().to_string().contains("empty"));
}

#[test]
fn round_trip_covers_full_index_range_for_3x2x4() {
    let dims = Dims::new(vec![3, 2, 4]).unwrap();
    assert_eq!(dims.space_size(), 24);
    for index in 0..24 {
        let digits = dims.digits_of(index);
        assert_eq!(digits.len(), 3);
        for (pos, &digit) in digits.iter().enumerate() {
            assert!(
                digit < dims.dim(pos),
                "digit {digit} at {pos} in |{digits:?}⟩"
            );
        }
        assert_eq!(dims.index_of(&digits), index);
    }
    // Digit vectors enumerate in lexicographic (most-significant-first) order.
    let all: Vec<_> = (0..24).map(|i| dims.digits_of(i)).collect();
    let mut sorted = all.clone();
    sorted.sort();
    assert_eq!(all, sorted);
}

#[test]
fn single_qudit_register_is_the_identity_map() {
    let dims = Dims::new(vec![7]).unwrap();
    for index in 0..7 {
        assert_eq!(dims.digits_of(index), vec![index]);
        assert_eq!(dims.index_of(&[index]), index);
    }
}

#[test]
fn large_qubit_register_does_not_overflow() {
    // 63 qubits: the space size is 2⁶³, the last valid index 2⁶³ − 1, and
    // the unreduced tree has 2⁶⁴ − 1 edges — every one of these sits right
    // at the edge of u64/usize without wrapping.
    let dims = Dims::uniform(63, 2).unwrap();
    assert_eq!(dims.space_size(), 1usize << 63);
    assert_eq!(dims.strides()[0], 1usize << 62);
    let top = (1usize << 63) - 1;
    let digits = dims.digits_of(top);
    assert!(digits.iter().all(|&d| d == 1));
    assert_eq!(dims.index_of(&digits), top);
    assert_eq!(dims.digits_of(0), vec![0; 63]);
    assert_eq!(dims.full_tree_edge_count(), usize::MAX);
    assert_eq!(dims.full_tree_node_count(), (1usize << 63) - 1);
}

#[test]
fn registers_beyond_the_index_space_are_rejected() {
    // [2,3,4,5]×10: 120¹⁰ ≈ 6.2 × 10²⁰ > 2⁶⁴ amplitudes.
    let pattern: Vec<usize> = (0..40).map(|i| 2 + i % 4).collect();
    assert_eq!(Dims::new(pattern), Err(DimsError::SpaceTooLarge));
    // 64 qubits: the space size itself is 2⁶⁴.
    assert_eq!(Dims::uniform(64, 2), Err(DimsError::SpaceTooLarge));
    // A single qudit whose tree edge count (1 + d) overflows.
    assert_eq!(Dims::new(vec![usize::MAX]), Err(DimsError::SpaceTooLarge));
    assert!(Dims::new(vec![usize::MAX - 1]).is_ok());
    // The scan reports whichever problem comes first, left to right.
    assert_eq!(
        Dims::new(vec![usize::MAX, usize::MAX, 1]),
        Err(DimsError::SpaceTooLarge)
    );
    assert_eq!(
        Dims::new(vec![1, usize::MAX, usize::MAX]),
        Err(DimsError::DimensionTooSmall {
            position: 0,
            dim: 1
        })
    );
    assert!(Dims::uniform(64, 2)
        .unwrap_err()
        .to_string()
        .contains("exceeds"));
}

#[test]
fn large_mixed_register_round_trips_at_extremes() {
    // 4^20 · 9 ≈ 9.9 × 10¹², far beyond dense simulation but fine for
    // index arithmetic.
    let mut v = vec![4; 20];
    v.push(9);
    let dims = Dims::new(v).unwrap();
    let size = dims.space_size();
    assert_eq!(size, 4usize.pow(20) * 9);
    for index in [0, 1, size / 2, size - 2, size - 1] {
        assert_eq!(
            dims.index_of(&dims.digits_of(index)),
            index,
            "index {index}"
        );
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn digits_of_space_size_panics() {
    let dims = Dims::new(vec![3, 2, 4]).unwrap();
    let _ = dims.digits_of(24);
}

#[test]
#[should_panic(expected = "does not match register length")]
fn index_of_wrong_arity_panics() {
    let dims = Dims::new(vec![3, 2, 4]).unwrap();
    let _ = dims.index_of(&[0, 0]);
}

#[test]
#[should_panic(expected = "exceeds local dimension")]
fn index_of_out_of_range_digit_panics() {
    let dims = Dims::new(vec![3, 2, 4]).unwrap();
    let _ = dims.index_of(&[0, 2, 0]);
}
