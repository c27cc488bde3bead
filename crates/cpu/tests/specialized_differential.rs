//! Differential acceptance suite of the monomorphized kernel library: for
//! every preset design × every synthetic matrix family × every SIMD variant,
//! the lowered kernel — as resolved for this host and as its forced-scalar
//! twin, serially and on a 4-way pool — must reproduce the reference CSR
//! product within [`alpha_matrix::max_scaled_error`] tolerance.
//!
//! The suite also pins which shapes it exercised: every index kind must
//! appear among the row-bounds and origin kinds of the kernels' shape
//! labels, so the model-materialisation path is covered by checked output.

use alpha_cpu::{NativeKernel, SimdMode};
use alpha_graph::{presets, Operator, OperatorGraph};
use alpha_matrix::{gen::PatternFamily, max_scaled_error, DenseVector};
use alpha_parallel::Pool;
use std::collections::BTreeSet;

/// Same tolerance as `reproduce -- native`'s correctness gate, for kernels
/// whose SIMD lanes reorder the floating-point reduction.
const TOL: f32 = 1e-3;

/// Stable stage sort (converting < mapping < implementing), as the search's
/// seeding does, so appended SIMD operators land in a canonical position.
fn sort_branch_stages(branch: &mut [Operator]) {
    branch.sort_by_key(|op| match op.stage() {
        alpha_graph::Stage::Converting => 0,
        alpha_graph::Stage::Mapping => 1,
        alpha_graph::Stage::Implementing => 2,
    });
}

/// The SIMD shapes appended to each branch of a base design (invalid
/// combinations dropped, exactly as the search does), so the differential
/// covers the vector rows of the shape lattice too.
fn simd_variants(base: &OperatorGraph) -> Vec<(&'static str, OperatorGraph)> {
    let sets: [(&'static str, &[Operator]); 3] = [
        (
            "nnz-x8+pf16",
            &[
                Operator::SimdNnzLanes { lanes: 8 },
                Operator::SimdPrefetch { distance: 16 },
            ],
        ),
        ("nnz-x4", &[Operator::SimdNnzLanes { lanes: 4 }]),
        ("row-x4", &[Operator::SimdRowLanes { lanes: 4 }]),
    ];
    let mut variants = Vec::new();
    for (name, ops) in sets {
        let mut twin = base.clone();
        for branch in &mut twin.branches {
            branch.extend(ops.iter().cloned());
            sort_branch_stages(branch);
        }
        if twin.validate().is_ok() {
            variants.push((name, twin));
        }
    }
    variants
}

/// The `off:` and `org:` index kinds named by a (possibly `|`-joined)
/// shape label such as `rows[off:table,org:id,col:table]:scalar`.
fn bounds_and_origin_kinds(label: &str) -> Vec<String> {
    label
        .split(['[', ',', ']'])
        .filter_map(|field| {
            field
                .strip_prefix("off:")
                .or_else(|| field.strip_prefix("org:"))
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn every_preset_and_family_agrees_across_the_specialization_differential() {
    let pool = Pool::new(4);
    let mut kinds_seen = BTreeSet::new();
    let mut checked = 0usize;
    for (preset_name, base) in presets::all_presets() {
        if base.validate().is_err() {
            continue;
        }
        let mut graphs = vec![("base", base.clone())];
        graphs.extend(simd_variants(&base));
        for (fi, family) in PatternFamily::ALL.iter().enumerate() {
            let matrix = family.generate(384, 6, 1700 + fi as u64);
            let x = DenseVector::random(matrix.cols(), 11);
            let reference = matrix.spmv(x.as_slice()).unwrap();
            for (variant, graph) in &graphs {
                let generated = alpha_codegen::generate(
                    graph,
                    &matrix,
                    alpha_codegen::GeneratorOptions::default(),
                )
                .unwrap_or_else(|e| {
                    panic!(
                        "{preset_name}/{variant}/{}: generation failed: {e}",
                        family.name()
                    )
                });
                for (mode_name, mode) in [
                    ("auto", SimdMode::Auto),
                    ("forced-scalar", SimdMode::ForceScalar),
                ] {
                    let kernel = NativeKernel::with_simd_mode(
                        generated.kernel.metadata(),
                        &generated.format,
                        mode,
                    );
                    let shape = kernel.shape_label();
                    kinds_seen.extend(bounds_and_origin_kinds(&shape));
                    for threads in [1, 4] {
                        let context = format!(
                            "{preset_name}/{variant}/{}/{mode_name}/{threads}T [{shape}]",
                            family.name()
                        );
                        let y = kernel
                            .run_with_pool(x.as_slice(), threads, &pool)
                            .unwrap_or_else(|e| panic!("{context}: kernel failed: {e}"));
                        let error = max_scaled_error(&y, &reference);
                        assert!(error <= TOL, "{context}: vs reference {error:.2e}");
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 0, "the differential tested nothing");
    for kind in ["id", "affine", "table", "model"] {
        assert!(
            kinds_seen.contains(kind),
            "no exercised kernel had `{kind}` row bounds or origins (saw {kinds_seen:?})"
        );
    }
}
