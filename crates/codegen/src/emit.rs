//! CUDA-like source emission.
//!
//! AlphaSparse's user-facing output is generated CUDA code (the paper's
//! Figure 7).  The simulator does not compile this text — it interprets the
//! structured kernel directly — but the emitted source preserves the
//! "output is code" property: it documents the machine-designed format's
//! arrays, the loop skeleton over thread blocks / warps / threads, the chosen
//! reduction fragments, and which index arrays Model-Driven Format
//! Compression replaced with closed-form expressions.

use crate::compress::CompressionModel;
use crate::format::{MachineFormat, PartitionFormat};
use alpha_graph::{
    BlockReduction, Mapping, MatrixMetadataSet, PartitionPlan, SimdLaneMapping, ThreadReduction,
    WarpReduction,
};

/// Emits CUDA-like source for the whole generated SpMV program.
pub fn emit_cuda(metadata: &MatrixMetadataSet, format: &MachineFormat) -> String {
    let mut out = String::new();
    out.push_str("// Machine-generated SpMV program (AlphaSparse reproduction)\n");
    out.push_str(&format!(
        "// matrix: {} rows x {} cols, {} non-zeros, {} partition(s)\n\n",
        metadata.original_rows,
        metadata.original_cols,
        metadata.original_nnz,
        metadata.partitions.len()
    ));
    for (i, (plan, pf)) in metadata
        .partitions
        .iter()
        .zip(&format.partitions)
        .enumerate()
    {
        out.push_str(&emit_partition(i, plan, pf));
        out.push('\n');
    }
    out.push_str(&emit_host_launcher(metadata, format));
    out
}

fn emit_partition(index: usize, plan: &PartitionPlan, pf: &PartitionFormat) -> String {
    let mut out = String::new();
    out.push_str(&format!("// ---- partition {index} ----\n"));
    out.push_str(&format!("// operator graph: {}\n", plan.describe()));
    out.push_str("// format arrays:\n");
    for array in &pf.arrays {
        match &array.compressed {
            Some(c) => out.push_str(&format!(
                "//   {:<18} compressed: {}\n",
                array.name,
                describe_model(&c.model, c.exceptions.len())
            )),
            None => out.push_str(&format!(
                "//   {:<18} u32[{}]\n",
                array.name,
                array.data.len()
            )),
        }
    }
    out.push_str(&format!(
        "//   values             f32[{0}], col_indices u32[{0}] (padded)\n",
        pf.padded_nnz
    ));

    out.push_str(&format!(
        "__global__ void alphasparse_partition_{index}(const float* __restrict__ values,\n\
         \x20                                        const unsigned* __restrict__ col_indices,\n\
         \x20                                        const float* __restrict__ x,\n\
         \x20                                        float* y) {{\n"
    ));
    out.push_str(&format!(
        "  // SET_RESOURCES: {} threads per block, {} blocks\n",
        pf.layout.threads_per_block, pf.layout.blocks
    ));
    match plan.mapping {
        Mapping::RowPerThread { rows_per_thread } => {
            out.push_str(&format!(
                "  // BMT_ROW_BLOCK: each thread owns {rows_per_thread} row(s); \
                 {} storage\n",
                if plan.interleaved {
                    "interleaved (column-major per block)"
                } else {
                    "row-major"
                }
            ));
            out.push_str("  for (int bmtb = blockIdx.x; ; bmtb += gridDim.x) {\n");
            out.push_str("    int bmt = bmtb * blockDim.x + threadIdx.x;\n");
            out.push_str(&emit_addressing(pf, "    "));
            out.push_str("    float partial[ROWS_PER_THREAD];\n");
            out.push_str("    for (int k = 0; k < bmt_size; ++k) {\n");
            out.push_str(&format!(
                "      int idx = {};\n",
                if plan.interleaved {
                    "bmtb_base + k * blockDim.x + threadIdx.x"
                } else {
                    "bmt_offset + k"
                }
            ));
            out.push_str("      partial[row_of(k)] += values[idx] * x[col_indices[idx]];\n");
            out.push_str("    }\n");
        }
        Mapping::VectorPerRow { threads_per_row } => {
            out.push_str(&format!(
                "  // BMT_COL_BLOCK: {threads_per_row} threads cooperate on each row\n"
            ));
            out.push_str("  int lane = threadIdx.x % THREADS_PER_ROW;\n");
            out.push_str(
                "  int row  = (blockIdx.x * blockDim.x + threadIdx.x) / THREADS_PER_ROW;\n",
            );
            out.push_str(&emit_addressing(pf, "  "));
            out.push_str("  float partial = 0.f;\n");
            out.push_str(
                "  for (int idx = row_start + lane; idx < row_end; idx += THREADS_PER_ROW)\n",
            );
            out.push_str("    partial += values[idx] * x[col_indices[idx]];\n");
        }
        Mapping::NnzSplit { nnz_per_thread } => {
            out.push_str(&format!(
                "  // BMT_NNZ_BLOCK: each thread owns {nnz_per_thread} consecutive non-zeros\n"
            ));
            out.push_str(
                "  int first_nz = (blockIdx.x * blockDim.x + threadIdx.x) * NNZ_PER_THREAD;\n",
            );
            out.push_str(&emit_addressing(pf, "  "));
            out.push_str("  int row = bmt_row_starts[thread_id];\n");
            out.push_str("  float partial = 0.f;\n");
            out.push_str("  for (int idx = first_nz; idx < first_nz + NNZ_PER_THREAD; ++idx) {\n");
            out.push_str("    partial += values[idx] * x[col_indices[idx]];\n");
            out.push_str("    // THREAD_BITMAP_RED: emit partial at each row boundary\n");
            out.push_str("    if (idx + 1 == row_offsets[row + 1]) { flush(partial, row++); }\n");
            out.push_str("  }\n");
        }
    }
    out.push_str(&emit_reduction(plan));
    out.push_str("}\n");
    out
}

fn emit_addressing(pf: &PartitionFormat, indent: &str) -> String {
    let mut out = String::new();
    for array in &pf.arrays {
        let line = match &array.compressed {
            Some(c) => format!(
                "{indent}// {} eliminated by Model-Driven Format Compression: {}\n",
                array.name,
                describe_model(&c.model, c.exceptions.len())
            ),
            None => format!("{indent}// load {} from global memory\n", array.name),
        };
        out.push_str(&line);
    }
    out
}

fn emit_reduction(plan: &PartitionPlan) -> String {
    let mut out = String::new();
    match plan.reduction.thread {
        ThreadReduction::Total => {
            out.push_str("  // THREAD_TOTAL_RED: accumulate the thread's chunk in a register\n");
        }
        ThreadReduction::Bitmap => {
            out.push_str(
                "  // THREAD_BITMAP_RED: per-row partials tracked with a boundary bitmap\n",
            );
        }
    }
    match plan.reduction.warp {
        Some(WarpReduction::Total) => {
            out.push_str("  partial = warp_reduce_sum(partial);            // WARP_TOTAL_RED\n");
        }
        Some(WarpReduction::Bitmap) => {
            out.push_str("  partial = warp_bitmap_reduce(partial, bitmap); // WARP_BITMAP_RED\n");
        }
        Some(WarpReduction::Segmented) => {
            out.push_str("  partial = warp_segmented_sum(partial, flags);  // WARP_SEG_RED\n");
        }
        None => {}
    }
    match plan.reduction.block {
        Some(BlockReduction::SharedOffset) => {
            out.push_str(
                "  // SHMEM_OFFSET_RED (adapter copies register partials into shared memory)\n\
                 \x20 shared_partials[threadIdx.x] = partial; __syncthreads();\n\
                 \x20 reduce_rows_by_offset(shared_partials, row_offsets_in_block);\n",
            );
        }
        Some(BlockReduction::SharedTotal) => {
            out.push_str(
                "  shared_partials[threadIdx.x] = partial; __syncthreads();\n\
                 \x20 block_total = block_reduce_sum(shared_partials); // SHMEM_TOTAL_RED\n",
            );
        }
        None => {}
    }
    if plan.reduction.global_atomic {
        out.push_str("  atomicAdd(&y[origin_rows[row]], partial);        // GMEM_ATOM_RED\n");
    } else {
        out.push_str("  y[origin_rows[row]] = partial;                   // direct store\n");
    }
    out
}

fn emit_host_launcher(metadata: &MatrixMetadataSet, format: &MachineFormat) -> String {
    let mut out = String::new();
    out.push_str("// ---- host launcher ----\n");
    out.push_str("void alphasparse_spmv(const float* x, float* y) {\n");
    for (i, pf) in format.partitions.iter().enumerate() {
        out.push_str(&format!(
            "  alphasparse_partition_{i}<<<{}, {}>>>(values_{i}, col_indices_{i}, x, y);\n",
            pf.layout.blocks, pf.layout.threads_per_block
        ));
    }
    out.push_str(&format!(
        "  // total format footprint: {} bytes for {} stored non-zeros\n",
        format.bytes(),
        metadata.original_nnz
    ));
    out.push_str("}\n");
    out
}

// ---------------------------------------------------------------------------
// Rust source emission (the native CPU backend's artifact)
// ---------------------------------------------------------------------------

/// Emits Rust source for the whole generated SpMV program: the exact
/// specialized row/nnz-partition loops `alpha-cpu`'s `NativeKernel` executes,
/// with compressed index arrays appearing as inline closed-form expressions
/// instead of loads.  Like [`emit_cuda`], this is the user-facing artifact —
/// the native backend runs the same structure as monomorphized library
/// loops.
pub fn emit_rust(metadata: &MatrixMetadataSet, format: &MachineFormat) -> String {
    let mut out = String::new();
    out.push_str(
        "// Machine-generated SpMV program (AlphaSparse reproduction, native CPU backend)\n",
    );
    out.push_str(&format!(
        "// matrix: {} rows x {} cols, {} non-zeros, {} partition(s)\n",
        metadata.original_rows,
        metadata.original_cols,
        metadata.original_nnz,
        metadata.partitions.len()
    ));
    out.push_str("// `y` must be zeroed by the caller; partitions accumulate into it.\n");
    out.push_str("pub fn alphasparse_spmv(x: &[f32], y: &mut [f32]) {\n");
    for (i, (plan, pf)) in metadata
        .partitions
        .iter()
        .zip(&format.partitions)
        .enumerate()
    {
        out.push_str(&emit_rust_partition(i, plan, pf));
    }
    out.push_str("}\n");
    out
}

/// The Rust expression reading entry `var` of a format array: an index load
/// for stored arrays, the fitted model inlined as arithmetic for compressed
/// ones (Model-Driven Format Compression executed for real).
fn rust_index_expr(pf: &PartitionFormat, name: &str, var: &str) -> String {
    let Some(array) = pf.array(name) else {
        return format!("{name}[{var}] as usize");
    };
    let Some(c) = &array.compressed else {
        return format!("{name}[{var}] as usize");
    };
    let patched = if c.exceptions.is_empty() {
        String::new()
    } else {
        format!(" /* {} patched exception(s) */", c.exceptions.len())
    };
    let expr = match &c.model {
        CompressionModel::Linear { base: 0, slope: 1 } => var.to_string(),
        CompressionModel::Linear { base: 0, slope } => format!("{slope} * {var}"),
        CompressionModel::Linear { base, slope } => {
            format!("({base} + {slope} * {var} as i64) as usize")
        }
        CompressionModel::Step {
            base,
            slope,
            period,
        } => format!("({base} + {slope} * ({var} / {period}) as i64) as usize"),
        CompressionModel::PeriodicLinear { slope, period, .. } => format!(
            "{name}_pattern[{var} % {period}] + ({slope} * ({var} / {period}) as i64) as usize"
        ),
    };
    format!("{expr}{patched}")
}

fn emit_rust_partition(index: usize, plan: &PartitionPlan, pf: &PartitionFormat) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "    // ---- partition {index}: {} ----\n",
        plan.describe()
    ));
    for array in &pf.arrays {
        match &array.compressed {
            Some(c) => out.push_str(&format!(
                "    //   {:<16} closed form: {} (no load)\n",
                array.name,
                describe_model(&c.model, c.exceptions.len())
            )),
            None => out.push_str(&format!(
                "    //   {:<16} u32[{}] (loaded)\n",
                array.name,
                array.data.len()
            )),
        }
    }
    out.push_str(&format!(
        "    //   values_{index} f32[{0}], col_indices_{index} u32[{0}]\n",
        pf.padded_nnz
    ));

    let rows = plan.matrix.rows();
    let x_at = |var: &str| {
        if plan.col_offset == 0 {
            format!("col_indices_{index}[{var}] as usize")
        } else {
            format!("col_indices_{index}[{var}] as usize + {}", plan.col_offset)
        }
    };
    let x_index = x_at("idx");
    let simd = &plan.simd;
    if simd.is_vectorized() {
        let shape = match simd.lane_mapping {
            SimdLaneMapping::Rows => "adjacent rows (one accumulator chain per lane)",
            SimdLaneMapping::Nnz => "one row's non-zeros (runtime AVX2/NEON gather)",
        };
        out.push_str(&format!(
            "    //   simd: {} lanes across {shape}, prefetch distance {}\n",
            simd.lanes, simd.prefetch_distance
        ));
    }
    let origin = rust_index_expr(pf, "origin_rows", "row");
    let row_lanes = matches!(simd.lane_mapping, SimdLaneMapping::Rows) && simd.is_vectorized();
    match plan.mapping {
        Mapping::RowPerThread { .. } | Mapping::VectorPerRow { .. } if row_lanes => {
            // Row-lane SIMD loop: groups of `lanes` adjacent rows advance
            // together, one accumulator chain per lane, each lane summing
            // its own row in scalar order (bitwise-identical results).
            let lanes = simd.lanes;
            out.push_str(&format!(
                "    for row_group in (0..{rows}).step_by({lanes}) {{ // {lanes} adjacent rows per SIMD group\n"
            ));
            out.push_str(&format!(
                "        let mut lane = [0.0f32; {lanes}]; // lane l owns row_group + l\n"
            ));
            if simd.prefetch_distance > 0 {
                out.push_str(&format!(
                    "        // values/col_indices/x streams prefetched {} elements ahead\n",
                    simd.prefetch_distance
                ));
            }
            out.push_str(&format!(
                "        for l in 0..{lanes}.min({rows} - row_group) {{ // interleaved across lanes\n"
            ));
            out.push_str("            let row = row_group + l;\n");
            out.push_str(&format!(
                "            let start = {};\n",
                rust_index_expr(pf, "row_offsets", "row")
            ));
            out.push_str(&format!(
                "            let end = {};\n",
                rust_index_expr(pf, "row_offsets", "(row + 1)")
            ));
            out.push_str("            for idx in start..end {\n");
            out.push_str(&format!(
                "                lane[l] += values_{index}[idx] * x[{x_index}];\n"
            ));
            out.push_str("            }\n");
            out.push_str(&format!("            y[{origin}] += lane[l];\n"));
            out.push_str("        }\n");
            out.push_str("    }\n");
        }
        Mapping::RowPerThread { .. } | Mapping::VectorPerRow { .. } => {
            // Row-partition loop: contiguous row ranges are split over
            // alpha-parallel workers; each worker runs exactly this body.
            out.push_str(&format!(
                "    for row in 0..{rows} {{ // split into contiguous ranges across workers\n"
            ));
            out.push_str(&format!(
                "        let start = {};\n",
                rust_index_expr(pf, "row_offsets", "row")
            ));
            out.push_str(&format!(
                "        let end = {};\n",
                rust_index_expr(pf, "row_offsets", "(row + 1)")
            ));
            emit_rust_row_dot(&mut out, "        ", index, simd, &x_at, "start", "end");
            out.push_str(&format!("        y[{origin}] += acc;\n"));
            out.push_str("    }\n");
        }
        Mapping::NnzSplit { nnz_per_thread } => {
            let nnz = plan.matrix.nnz();
            let npt = nnz_per_thread.max(1);
            let chunks = nnz.div_ceil(npt).max(1);
            out.push_str(&format!(
                "    for chunk in 0..{chunks} {{ // nnz-partition loop: {npt} non-zeros per chunk, grouped across workers\n"
            ));
            out.push_str(&format!("        let start = chunk * {npt};\n"));
            out.push_str(&format!("        let end = (start + {npt}).min({nnz});\n"));
            out.push_str(&format!(
                "        let mut row = {};\n",
                rust_index_expr(pf, "bmt_row_starts", "chunk")
            ));
            out.push_str("        let mut cursor = start;\n");
            out.push_str("        while cursor < end {\n");
            out.push_str(&format!(
                "            let seg_end = ({}).min(end);\n",
                rust_index_expr(pf, "row_offsets", "(row + 1)")
            ));
            emit_rust_row_dot(
                &mut out,
                "            ",
                index,
                simd,
                &x_at,
                "cursor",
                "seg_end",
            );
            out.push_str(&format!(
                "            y[{origin}] += acc; // row boundaries merge via accumulation\n"
            ));
            out.push_str("            cursor = seg_end;\n");
            out.push_str("            row += 1;\n");
            out.push_str("        }\n");
            out.push_str("    }\n");
        }
    }
    out
}

/// Emits the dot product over `[start, end)` into a variable `acc`: the
/// scalar loop, or — when the plan maps SIMD lanes across the row's
/// non-zeros — the lane-strided gather loop with its fixed horizontal-add
/// tree and serial tail (the exact shape `alpha-cpu`'s microkernels run).
fn emit_rust_row_dot(
    out: &mut String,
    indent: &str,
    index: usize,
    simd: &alpha_graph::SimdPlan,
    x_at: &dyn Fn(&str) -> String,
    start: &str,
    end: &str,
) {
    if !simd.is_vectorized() || simd.lane_mapping != SimdLaneMapping::Nnz {
        out.push_str(&format!("{indent}let mut acc = 0.0f32;\n"));
        out.push_str(&format!("{indent}for idx in {start}..{end} {{\n"));
        out.push_str(&format!(
            "{indent}    acc += values_{index}[idx] * x[{}];\n",
            x_at("idx")
        ));
        out.push_str(&format!("{indent}}}\n"));
        return;
    }
    let lanes = simd.lanes;
    out.push_str(&format!(
        "{indent}let mut lane = [0.0f32; {lanes}]; // {lanes}-lane gather kernel (AVX2 _mm256_i32gather_ps / NEON, runtime-dispatched)\n"
    ));
    out.push_str(&format!("{indent}let mut idx = {start};\n"));
    out.push_str(&format!("{indent}while idx + {lanes} <= {end} {{\n"));
    if simd.prefetch_distance > 0 {
        out.push_str(&format!(
            "{indent}    // values/col_indices/x streams prefetched {} elements ahead\n",
            simd.prefetch_distance
        ));
    }
    out.push_str(&format!("{indent}    for l in 0..{lanes} {{\n"));
    out.push_str(&format!(
        "{indent}        lane[l] += values_{index}[idx + l] * x[{}];\n",
        x_at("idx + l")
    ));
    out.push_str(&format!("{indent}    }}\n"));
    out.push_str(&format!("{indent}    idx += {lanes};\n"));
    out.push_str(&format!("{indent}}}\n"));
    out.push_str(&format!(
        "{indent}let mut acc = hsum_tree(&lane); // fixed halving tree, identical on every backend\n"
    ));
    out.push_str(&format!(
        "{indent}for t in idx..{end} {{ // serial tail, accumulated separately\n"
    ));
    out.push_str(&format!(
        "{indent}    acc += values_{index}[t] * x[{}];\n",
        x_at("t")
    ));
    out.push_str(&format!("{indent}}}\n"));
}

fn describe_model(model: &CompressionModel, exceptions: usize) -> String {
    let base = match model {
        CompressionModel::Linear { base, slope } => format!("value(i) = {base} + {slope} * i"),
        CompressionModel::Step {
            base,
            slope,
            period,
        } => {
            format!("value(i) = {base} + {slope} * (i / {period})")
        }
        CompressionModel::PeriodicLinear { slope, period, .. } => {
            format!("value(i) = pattern[i % {period}] + {slope} * (i / {period})")
        }
    };
    if exceptions > 0 {
        format!("{base} ({exceptions} patched exception(s))")
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use crate::{generate, GeneratorOptions};
    use alpha_graph::presets;
    use alpha_matrix::gen;

    fn source_for(graph: &alpha_graph::OperatorGraph) -> String {
        let matrix = gen::uniform_random(512, 512, 8, 3);
        generate(graph, &matrix, GeneratorOptions::default())
            .unwrap()
            .source
    }

    #[test]
    fn emitted_source_contains_kernel_and_launcher() {
        let src = source_for(&presets::sell_like());
        assert!(src.contains("__global__ void alphasparse_partition_0"));
        assert!(src.contains("alphasparse_spmv"));
        assert!(src.contains("<<<"));
    }

    #[test]
    fn reduction_fragments_match_operators() {
        let src = source_for(&presets::csr5_like(16));
        assert!(src.contains("WARP_SEG_RED"));
        assert!(src.contains("atomicAdd"));
        assert!(src.contains("THREAD_BITMAP_RED"));

        let src = source_for(&presets::csr_adaptive_like());
        assert!(src.contains("SHMEM_OFFSET_RED"));
        assert!(src.contains("__syncthreads"));
    }

    #[test]
    fn compression_is_documented_in_source() {
        let src = source_for(&presets::csr_scalar());
        assert!(src.contains("Model-Driven Format Compression"));
        assert!(src.contains("value(i) ="));
    }

    #[test]
    fn branched_designs_emit_one_kernel_per_partition() {
        let src = source_for(&presets::row_split_hybrid(2));
        assert!(src.contains("alphasparse_partition_0"));
        assert!(src.contains("alphasparse_partition_1"));
    }

    #[test]
    fn operator_provenance_is_embedded() {
        let src = source_for(&presets::figure5_example());
        assert!(src.contains("COMPRESS"));
        assert!(src.contains("BMT_PAD"));
        assert!(src.contains("GMEM_ATOM_RED"));
    }

    #[test]
    fn vectorized_plans_emit_the_simd_loop_shape() {
        use alpha_graph::{Operator, OperatorGraph};
        let matrix = gen::uniform_random(256, 256, 8, 5);
        let gathered = OperatorGraph::linear(vec![
            Operator::Compress,
            Operator::BmtRowBlock { rows: 1 },
            Operator::SimdNnzLanes { lanes: 8 },
            Operator::SimdPrefetch { distance: 16 },
            Operator::ThreadTotalRed,
        ]);
        let rust = generate(&gathered, &matrix, GeneratorOptions::default())
            .unwrap()
            .rust_source;
        assert!(rust.contains("simd: 8 lanes across one row's non-zeros"));
        assert!(rust.contains("prefetch distance 16"));
        assert!(rust.contains("_mm256_i32gather_ps"));
        assert!(rust.contains("hsum_tree(&lane)"));
        assert!(rust.contains("serial tail"));

        let row_lanes = OperatorGraph::linear(vec![
            Operator::Compress,
            Operator::BmtRowBlock { rows: 1 },
            Operator::SimdRowLanes { lanes: 4 },
            Operator::ThreadTotalRed,
        ]);
        let rust = generate(&row_lanes, &matrix, GeneratorOptions::default())
            .unwrap()
            .rust_source;
        assert!(rust.contains("simd: 4 lanes across adjacent rows"));
        assert!(rust.contains("4 adjacent rows per SIMD group"));

        // Scalar designs keep the scalar shape.
        let rust = generate(&presets::csr_scalar(), &matrix, GeneratorOptions::default())
            .unwrap()
            .rust_source;
        assert!(!rust.contains("simd:"));
        assert!(!rust.contains("hsum_tree"));
    }
}
