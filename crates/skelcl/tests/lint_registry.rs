//! Registry-wide kernel lint: drive every skeleton family once — including
//! both reduce/scan/allpairs strategies, the with-arguments variants, and
//! the fused pipeline chains — so the shared [`ProgramRegistry`] holds one
//! compiled program per generated-code family, then run the `skelcheck`
//! lint pass over every resident program and require **zero findings**.
//!
//! This is the codegen contract the linter enforces: no barrier under
//! thread-divergent control flow, every statically declared `__local`
//! array inside the device budget, host arg-marshalling arity matching a
//! kernel signature, every `__global` read guarded against bounds, every
//! identifier in a subscript declared, and every function a kernel calls
//! defined in its program or provided by OpenCL C.

use skelcl::*;

fn ctx() -> Context {
    Context::new(
        ContextConfig::default()
            .devices(2)
            .spec(vgpu::DeviceSpec::tiny())
            .work_group(64)
            .cache_tag("lint-registry"),
    )
}

fn add_fn() -> UserFn<fn(f32, f32) -> f32> {
    skel_fn!(
        fn ladd(x: f32, y: f32) -> f32 {
            x + y
        }
    )
}

fn mul_fn() -> UserFn<fn(f32, f32) -> f32> {
    skel_fn!(
        fn lmul(x: f32, y: f32) -> f32 {
            x * y
        }
    )
}

fn scale_fn() -> UserFn<fn(f32) -> f32> {
    skel_fn!(
        fn lscale(x: f32) -> f32 {
            x * 0.5 + 1.0
        }
    )
}

const CROSS_SRC: &str =
    "float lcross(__global float* in, int r, int c, uint nr, uint nc) { /* damped cross */ }";

fn cross_user() -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    UserFn::new("lcross", CROSS_SRC, |v: &Stencil2DView<'_, f32>| {
        0.2 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1)) + 0.1 * v.get(0, 0)
    })
}

/// A radius-`radius` column sum (radius 1 or 2), for the block programs.
fn column_user(radius: usize) -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    let r = radius as isize;
    UserFn::new(
        format!("lcolumn{radius}"),
        format!(
            "float lcolumn{radius}(__global float* in, int r, int c, uint nr, uint nc) {{\n\
                 float acc = 0.0f;\n\
                 for (int dr = -{radius}; dr <= {radius}; ++dr)\n\
                     acc += stencil_at(in, r, c, nr, nc, dr, 0);\n\
                 return 0.25f * acc;\n\
             }}"
        ),
        move |v: &Stencil2DView<'_, f32>| 0.25 * (-r..=r).map(|dr| v.get(dr, 0)).sum::<f32>(),
    )
}

fn widen_fn() -> UserFn<fn(f32, f32) -> f64> {
    skel_fn!(
        fn lwiden(x: f32, y: f32) -> f64 {
            x as f64 + y as f64 * 0.5
        }
    )
}

/// A radius-1 stencil over `f32` with an `f64` result.
fn widen_user() -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f64 + Clone> {
    UserFn::new(
        "lwiden_cross",
        "double lwiden_cross(__global float* in, int r, int c, uint nr, uint nc) {\n\
             return 0.5 * (double)stencil_at(in, r, c, nr, nc, -1, 0)\n\
                  + (double)stencil_at(in, r, c, nr, nc, 0, 1);\n\
         }",
        |v: &Stencil2DView<'_, f32>| 0.5 * v.get(-1, 0) as f64 + v.get(0, 1) as f64,
    )
}

/// A radius-1 stencil over `f64` with an `f32` result.
fn narrow_user() -> UserFn<impl Fn(&Stencil2DView<'_, f64>) -> f32 + Clone> {
    UserFn::new(
        "lnarrow",
        "float lnarrow(__global double* in, int r, int c, uint nr, uint nc) {\n\
             return (float)(0.5 * (stencil_at(in, r, c, nr, nc, -1, 1)\n\
                                 + stencil_at(in, r, c, nr, nc, 1, -1)));\n\
         }",
        |v: &Stencil2DView<'_, f64>| (0.5 * (v.get(-1, 1) + v.get(1, -1))) as f32,
    )
}

fn mult_num_fn() -> UserFn<impl Fn(f32, &KernelEnv<'_>) -> f32 + Clone> {
    UserFn::new(
        "lmult_num",
        "float lmult_num(float input, float number) { return input * number; }",
        |x: f32, env: &KernelEnv<'_>| x * env.scalar::<f32>(0),
    )
}

fn fma_fn() -> UserFn<impl Fn(f32, f32, &KernelEnv<'_>) -> f32 + Clone> {
    UserFn::new(
        "lfma",
        "float lfma(float x, float y, float s) { return x + y * s; }",
        |x: f32, y: f32, env: &KernelEnv<'_>| x + y * env.scalar::<f32>(0),
    )
}

fn scatter_fn() -> UserFn<impl Fn(u32, &KernelEnv<'_>) + Clone> {
    UserFn::new(
        "lscatter",
        "void lscatter(uint i, __global float* acc) { atomic_add(&acc[i % 4], 1.0f); }",
        |i: u32, env: &KernelEnv<'_>| {
            env.vec::<f32>(0).atomic_add(i as usize % 4, 1.0);
        },
    )
}

const BOUNDARIES: [Boundary2D; 3] = [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero];

fn vec_data(c: &Context, n: usize) -> Vector<f32> {
    Vector::from_vec(c, (0..n).map(|i| (i % 17) as f32 - 8.0).collect())
}

fn mat_data(c: &Context, rows: usize, cols: usize) -> Matrix<f32> {
    Matrix::from_fn(c, rows, cols, |r, cc| ((r * cols + cc) % 13) as f32 - 6.0)
}

/// Compile one program per generated-code family into `c`'s registry.
fn populate_registry(c: &Context) {
    // 1D element-wise families: map, zip, and their with-arguments twins.
    let v = vec_data(c, 100);
    let w = vec_data(c, 100);
    Map::new(scale_fn()).apply(&v).unwrap();
    Zip::new(add_fn()).apply(&v, &w).unwrap();

    let mut args = Arguments::new();
    args.push(3.0f32);
    MapArgs::new(mult_num_fn(), 1).apply(&v, &args).unwrap();
    ZipArgs::new(fma_fn(), 1).apply(&v, &w, &args).unwrap();

    let acc = Vector::from_vec(c, vec![0.0f32; 4]);
    acc.set_distribution(Distribution::Copy).unwrap();
    let idx = Vector::from_vec(c, (0..16u32).collect());
    let mut vec_args = Arguments::new();
    vec_args.push(&acc);
    MapVoid::new(scatter_fn(), 1)
        .apply(&idx, &vec_args)
        .unwrap();

    // Tree reductions and scans, both strategies each.
    Reduce::new(add_fn(), 0.0).apply(&v).unwrap();
    Reduce::new(add_fn(), 0.0)
        .with_strategy(ReduceStrategy::GlobalNaive)
        .apply(&v)
        .unwrap();
    Scan::new(add_fn(), 0.0).apply(&v).unwrap();
    Scan::new(add_fn(), 0.0)
        .with_strategy(ScanStrategy::Conflicting)
        .apply(&v)
        .unwrap();

    // Element-wise over matrices (the programs the vector calls built) and
    // the 2D stencil: a same-type stencil's apply and iterate run one
    // block program, a different-type stencil's apply the one-stage chain
    // program.
    let m = mat_data(c, 12, 8);
    let m2 = mat_data(c, 12, 8);
    Map::new(scale_fn()).apply_matrix(&m).unwrap();
    Zip::new(add_fn()).apply_matrix(&m, &m2).unwrap();
    let st = Stencil2D::new(cross_user(), 1, Boundary2D::Neumann);
    st.apply(&m).unwrap();
    Stencil2D::new(widen_user(), 1, Boundary2D::Neumann)
        .apply(&m)
        .unwrap();
    let it = mat_data(c, 12, 8);
    it.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    st.iterate(&it, 2).unwrap();
    // The block program iterate launches, radius 1 and 2, every boundary.
    for boundary in BOUNDARIES {
        for radius in [1, 2] {
            Stencil2D::new(column_user(radius), radius, boundary)
                .iterate(&it, 5)
                .unwrap();
        }
    }

    // Row/column reductions and their argbest twins.
    ReduceRows::new(add_fn(), 0.0).apply(&m).unwrap();
    ReduceCols::new(add_fn(), 0.0).apply(&m).unwrap();
    let less = skel_fn!(
        fn lless(x: f32, y: f32) -> bool {
            x < y
        }
    );
    ReduceRowsArg::new(less.clone()).apply(&m).unwrap();
    ReduceColsArg::new(less).apply(&m).unwrap();

    // AllPairs: naive, tiled, and the fused post-stage variant.
    let a = mat_data(c, 6, 5);
    let b = mat_data(c, 5, 7);
    AllPairs::new(mul_fn(), add_fn(), 0.0)
        .with_strategy(AllPairsStrategy::Naive)
        .apply(&a, &b)
        .unwrap();
    AllPairs::new(mul_fn(), add_fn(), 0.0)
        .with_strategy(AllPairsStrategy::Tiled { tile: 16 })
        .apply(&a, &b)
        .unwrap();
    for strategy in [
        AllPairsStrategy::Naive,
        AllPairsStrategy::Tiled { tile: 16 },
    ] {
        AllPairs::new(mul_fn(), add_fn(), 0.0)
            .with_strategy(strategy)
            .with_post(scale_fn())
            .apply(&a, &b)
            .unwrap();
    }

    // Fused pipeline chains: pure element-wise group (elementwise), staged
    // stencil groups with fused pre/post stages (stencil2d_block), zip
    // operands before and after a stencil, a stencil pair, and map and zip
    // chains folded into a row reduction (the fold generator's staged
    // members).
    Pipeline::start::<f32>()
        .map(scale_fn())
        .zip_with(&m2, add_fn())
        .run(&m)
        .unwrap();
    Pipeline::start::<f32>()
        .map(scale_fn())
        .stencil(cross_user(), 1, Boundary2D::Neumann)
        .map(scale_fn())
        .run(&m)
        .unwrap();
    for boundary in BOUNDARIES {
        Pipeline::start::<f32>()
            .zip_with(&m2, add_fn())
            .stencil(cross_user(), 1, boundary)
            .run(&m)
            .unwrap();
        Pipeline::start::<f32>()
            .stencil(cross_user(), 1, boundary)
            .zip_with(&m2, mul_fn())
            .run(&m)
            .unwrap();
    }
    Pipeline::start::<f32>()
        .stencil_pair(cross_user(), column_user(1), add_fn(), 1, Boundary2D::Zero)
        .run(&m)
        .unwrap();
    // Three-stencil chains (one window per stencil, f32 → f64 → f32, a
    // zip between the first two stencils) under every boundary and the
    // mixed Neumann → Zero one.
    let mixed = [Boundary2D::Neumann, Boundary2D::Zero, Boundary2D::Zero];
    for bs in BOUNDARIES.map(|b| [b; 3]).into_iter().chain([mixed]) {
        Pipeline::start::<f32>()
            .stencil(cross_user(), 1, bs[0])
            .zip_with(&m2, add_fn())
            .stencil_pair(cross_user(), column_user(1), widen_fn(), 1, bs[1])
            .stencil(narrow_user(), 1, bs[2])
            .map(scale_fn())
            .run(&m)
            .unwrap();
    }
    Pipeline::start::<f32>()
        .map(scale_fn())
        .reduce_rows(&m, add_fn(), 0.0)
        .unwrap();
    Pipeline::start::<f32>()
        .zip_with(&m2, mul_fn())
        .reduce_rows(&m, add_fn(), 0.0)
        .unwrap();
}

#[test]
fn every_registered_program_lints_clean() {
    let c = ctx();
    populate_registry(&c);

    let resident = c.program_registry().len();
    assert!(
        resident >= 20,
        "expected one program per family in the registry, found {resident}"
    );
    // Among them the block programs of iterate, whose per-round barriers
    // must sit outside every thread-dependent branch and bounds guard, and
    // whose signature must take the 8 arguments every block launch
    // marshals.
    for boundary in BOUNDARIES {
        for radius in [1, 2] {
            let program = Stencil2D::new(column_user(radius), radius, boundary)
                .program()
                .clone();
            assert!(c.program_registry().contains(&program), "{}", program.name);
            assert_eq!(program.n_args, 8, "{}", program.name);
        }
    }
    // A different-type stencil's apply runs the one-stage chain program:
    // in, out, n_rows, n_cols, row_offset and one window.
    let widen = Stencil2D::new(widen_user(), 1, Boundary2D::Neumann)
        .program()
        .clone();
    assert!(c.program_registry().contains(&widen), "{}", widen.name);
    assert_eq!(widen.n_args, 6, "{}", widen.name);

    // One program per element-wise skeleton, taking the arguments each of
    // its launches marshals and pays for: in, out, one operand per zip
    // stage, n, one per extra argument. The arity lint parses every
    // signature, so this pins the parsed count too.
    let budget = c.device(0).spec().local_mem_bytes as u64;
    for (program, n_args) in [
        (Map::<f32, f32, _>::new(scale_fn()).program().clone(), 3),
        (Zip::<f32, f32, f32, _>::new(add_fn()).program().clone(), 4),
        (MapArgs::new(mult_num_fn(), 1).program().clone(), 4),
        (ZipArgs::new(fma_fn(), 1).program().clone(), 5),
        (MapVoid::new(scatter_fn(), 1).program().clone(), 4),
    ] {
        assert!(c.program_registry().contains(&program), "{}", program.name);
        assert_eq!(program.n_args, n_args, "{}", program.name);
        let arity = check::lint_program(&program.name, &program.source, n_args, budget);
        assert!(arity.is_empty(), "{}: {arity:?}", program.name);
    }

    // The chains took one program each, with a window argument per stencil.
    let chains: Vec<_> = c
        .program_registry()
        .programs()
        .into_iter()
        .filter(|p| p.name.starts_with("skelcl_stencil2d_block_r1+1+1_"))
        .collect();
    assert_eq!(
        chains.len(),
        4,
        "{:?}",
        chains.iter().map(|p| &p.name).collect::<Vec<_>>()
    );
    for program in &chains {
        assert_eq!(program.n_args, 5 + 1 + 3, "{}", program.name);
    }

    let findings = c.lint_registry();
    assert!(
        findings.is_empty(),
        "lint findings over {} registered programs:\n{}",
        resident,
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The pass is visible in the metrics registry: it ran (counter exists)
    // and recorded zero findings.
    assert_eq!(
        c.metrics().counter_value("skelcheck.lint_findings"),
        Some(0)
    );
}

#[test]
fn dropping_a_stencil_pairs_definition_is_one_undefined_function() {
    // The chain kernel calls a stencil pair by its composite name; the
    // pair's stage pastes that function's definition with its parts.
    let c = ctx();
    let m = mat_data(&c, 12, 8);
    Pipeline::start::<f32>()
        .stencil_pair(cross_user(), column_user(1), add_fn(), 1, Boundary2D::Zero)
        .run(&m)
        .unwrap();
    let pair = "pair_lcross_lcolumn1_ladd";
    let program = c
        .program_registry()
        .programs()
        .into_iter()
        .find(|p| p.source.contains(&format!("{pair}(")))
        .expect("the pair's chain program is resident");
    let budget = c.device(0).spec().local_mem_bytes as u64;
    let lint = |source: &str| check::lint_program(&program.name, source, program.n_args, budget);
    assert!(lint(&program.source).is_empty());

    let definition = format!("{pair}(__local");
    let dropped: Vec<&str> = program
        .source
        .lines()
        .filter(|line| !line.contains(&definition))
        .collect();
    assert_eq!(dropped.len() + 1, program.source.lines().count());
    let findings = lint(&dropped.join("\n"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, check::LintRule::UndefinedFunction);
    assert!(findings[0].message.contains(pair), "{}", findings[0]);
}
