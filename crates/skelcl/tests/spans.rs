//! End-to-end span telemetry: skeleton calls emit nested spans that link to
//! the engine-level timeline trace, span counters are exact deltas, and the
//! clock-epoch rules (module docs of `skelcl::trace`) hold — spans from
//! before a `reset_clocks` never leak into the current epoch while the
//! monotonic counters underneath keep accumulating.

use skelcl::{
    verify_span_nesting, Boundary2D, Context, ContextConfig, Matrix, MatrixDistribution, Stencil2D,
    Stencil2DView, UserFn,
};
use vgpu::DeviceSpec;

fn ctx(n_devices: usize) -> Context {
    Context::new(
        ContextConfig::default()
            .devices(n_devices)
            .spec(DeviceSpec::tiny())
            .work_group(64)
            .cache_tag("spans-test"),
    )
}

fn cross_stencil(
    boundary: Boundary2D,
) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    let user = UserFn::new(
        "scross",
        "float scross(__global float* in, int r, int c, uint nr, uint nc) { /* cross */ }",
        |v: &Stencil2DView<'_, f32>| {
            0.2 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1)) + 0.1 * v.get(0, 0)
        },
    );
    Stencil2D::new(user, 1, boundary)
}

#[test]
fn stencil_iterate_emits_nested_spans_linked_to_trace() {
    let c = ctx(4);
    c.enable_spans();
    c.platform().enable_timeline_trace();

    let rows = 32;
    let cols = 16;
    let data: Vec<f32> = (0..rows * cols).map(|i| (i % 97) as f32).collect();
    let m = Matrix::from_vec(&c, rows, cols, data);
    m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    let st = cross_stencil(Boundary2D::Neumann);
    let out = st.iterate(&m, 3).unwrap();
    out.to_vec().unwrap();
    c.sync();

    let spans = c.take_spans();
    let trace = c.platform().take_timeline_trace();
    assert!(!trace.is_empty(), "timeline trace should have records");

    let iter = spans
        .iter()
        .find(|s| s.name == "stencil2d.iterate")
        .expect("iterate span present");
    assert_eq!(iter.parent, None);
    assert!(iter.duration_s() > 0.0);
    assert_eq!(
        iter.halo_exchanges, 1,
        "fresh input: round 1 reads fresh halos, rounds 2..=3 are one block"
    );
    assert!(iter.stats.kernel_launches > 0);
    assert_eq!(
        iter.program_cache_hits + iter.program_cache_misses,
        1,
        "iterate resolves its program exactly once"
    );
    assert!(
        iter.attrs
            .iter()
            .any(|(k, v)| *k == "shape" && v == "32x16"),
        "{:?}",
        iter.attrs
    );
    let attr = |attrs: &[(&str, String)], key: &str| {
        attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    // The plan is readable from the trace: one block of two rounds...
    assert_eq!(attr(&iter.attrs, "blocks").as_deref(), Some("1"));
    assert_eq!(attr(&iter.attrs, "block_rounds").as_deref(), Some("2"));

    // Every halo exchange inside iterate is a child span of the iterate span.
    let halos: Vec<_> = spans.iter().filter(|s| s.name == "halo.exchange").collect();
    assert_eq!(halos.len(), 1);
    for h in &halos {
        assert_eq!(h.parent, Some(iter.id));
        // Its 2-row halos cross the host: the six that Neumann reads are
        // uploaded, and each inner part downloads its rows for its two
        // neighbours apart, each outer part once.
        let moved = (6, 6 * 2 * 16 * 4);
        assert_eq!((h.stats.d2h_transfers, h.stats.d2h_bytes), moved);
        assert_eq!((h.stats.h2d_transfers, h.stats.h2d_bytes), moved);
        assert_eq!(h.stats.d2d_bytes, 0, "no device-to-device copy");
        // ...whose exchange refreshes two radius-1 rows per halo.
        assert_eq!(attr(&h.attrs, "rows").as_deref(), Some("2"));
    }

    // Span ↔ engine-trace linkage: the recorded command range is in bounds
    // and the iterate span (which encloses upload + all launches here)
    // covers every record that ran inside it.
    assert!(iter.trace_first + iter.trace_len <= trace.len());
    assert!(iter.trace_len > 0);
    for rec in &trace[iter.trace_first..iter.trace_first + iter.trace_len] {
        assert!(rec.start_s >= iter.start_s - 1e-12);
        assert!(rec.end_s <= iter.end_s + 1e-12);
    }

    assert_eq!(verify_span_nesting(&spans), None);
}

#[test]
fn spans_from_stale_epochs_are_discarded_but_counters_survive() {
    let c = ctx(2);
    c.enable_spans();

    let m = Matrix::from_vec(&c, 8, 8, vec![1.0f32; 64]);
    m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    let st = cross_stencil(Boundary2D::Wrap);
    st.iterate(&m, 2).unwrap().to_vec().unwrap();
    c.sync();

    let halos_before = c.halo_exchange_count();
    assert_eq!(halos_before, 1, "iterate(2) on fresh input exchanges once");
    assert!(!c.take_spans().is_empty());

    // A span that straddles a clock reset closes in a different epoch and
    // must be silently dropped — its timestamps mix two epochs.
    {
        let mut straddling = c.span("manual.straddling");
        straddling.attr("note", "opened before reset");
        c.platform().reset_clocks();
    }
    assert!(
        c.take_spans().is_empty(),
        "span closed across reset_clocks must be discarded"
    );

    // Records completed *before* the reset are also stale now.
    let st2 = cross_stencil(Boundary2D::Wrap);
    st2.iterate(&m, 2).unwrap().to_vec().unwrap();
    c.sync();
    let spans = c.take_spans();
    assert!(
        spans.iter().all(|s| s.name != "manual.straddling"),
        "stale-epoch spans must never resurface"
    );
    assert!(spans.iter().any(|s| s.name == "stencil2d.iterate"));

    // The monotonic metrics underneath are epoch-independent.
    assert_eq!(c.halo_exchange_count(), halos_before + 1);
    assert_eq!(
        c.metrics().counter_value("skelcl.halo_exchanges"),
        Some(halos_before + 1),
        "registry counter and legacy accessor are the same metric"
    );
}

#[test]
fn spans_are_disabled_by_default() {
    let c = ctx(2);
    assert!(!c.spans_enabled());
    let m = Matrix::from_vec(&c, 8, 8, vec![2.0f32; 64]);
    m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    cross_stencil(Boundary2D::Zero)
        .iterate(&m, 2)
        .unwrap()
        .to_vec()
        .unwrap();
    assert!(c.take_spans().is_empty(), "no spans unless enabled");
}

#[test]
fn a_tesla_iterate_records_its_tile_and_each_exchange_its_copy_rounds() {
    // The repository benchmark's heat_iterate shape: 20 Jacobi rounds over
    // a 1024² plate on four modeled Tesla parts (16×16 work-groups). The
    // plan steps its two blocks (10 + 9 rounds) over 32×16 tiles, and each
    // block's exchange stages the six halos Neumann reads through the
    // host: six downloads and six uploads.
    let c = Context::new(ContextConfig::default().devices(4).cache_tag("spans-test"));
    let (rows, cols) = (1024, 1024);
    let data: Vec<f32> = (0..rows * cols).map(|i| (i % 89) as f32).collect();
    let m = Matrix::from_vec(&c, rows, cols, data);
    m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    m.ensure_on_devices().unwrap();
    let user = UserFn::new(
        "sheat",
        "float sheat(__global float* in, int r, int c, uint nr, uint nc) { /* 4-point mean */ }",
        |v: &Stencil2DView<'_, f32>| {
            0.25 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1))
        },
    );
    c.enable_spans();
    Stencil2D::new(user, 1, Boundary2D::Neumann)
        .iterate(&m, 20)
        .unwrap();
    let spans = c.take_spans();
    let attr = |name: &str, key: &str| -> Vec<String> {
        let of = spans.iter().filter(|s| s.name == name);
        of.filter_map(|s| s.attrs.iter().find(|(k, _)| *k == key))
            .map(|(_, v)| v.clone())
            .collect()
    };
    assert_eq!(attr("stencil2d.iterate", "blocks"), ["2"]);
    assert_eq!(attr("stencil2d.iterate", "block_rounds"), ["10"]);
    assert_eq!(attr("stencil2d.iterate", "tile"), ["32x16"]);
    let exchanges = spans.iter().filter(|s| s.name == "halo.exchange");
    let transfers = exchanges.map(|s| (s.stats.d2h_transfers, s.stats.h2d_transfers));
    assert_eq!(transfers.collect::<Vec<_>>(), [(6, 6); 2]);
    assert_eq!(verify_span_nesting(&spans), None);
}

#[test]
fn a_lone_part_iterate_opens_no_empty_exchange_span() {
    // One Tesla part owns the whole 256² plate. Under `Neumann` its halo
    // rows are wrapped matrix edges no block reads, so no block exchanges
    // anything and no `halo.exchange` span is opened for it; the spans
    // change no modeled time.
    let run = |spans: bool| {
        let c = Context::new(ContextConfig::default().devices(1).cache_tag("spans-test"));
        let (rows, cols) = (256, 256);
        let data: Vec<f32> = (0..rows * cols).map(|i| (i % 89) as f32).collect();
        let m = Matrix::from_vec(&c, rows, cols, data);
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        if spans {
            c.enable_spans();
        }
        c.sync();
        let start = c.host_now_s();
        let out = cross_stencil(Boundary2D::Neumann).iterate(&m, 30).unwrap();
        c.sync();
        let modeled = c.host_now_s() - start;
        (out.to_vec().unwrap(), modeled, c.take_spans())
    };
    let (with, with_s, spans) = run(true);
    let (without, without_s, _) = run(false);
    let iterate = spans.iter().find(|s| s.name == "stencil2d.iterate");
    let blocks = iterate.and_then(|s| s.attrs.iter().find(|(k, _)| *k == "blocks"));
    assert!(blocks.is_some_and(|(_, v)| v != "0"), "{blocks:?}");
    assert!(spans.iter().all(|s| s.name != "halo.exchange"));
    assert_eq!(with_s, without_s);
    assert_eq!(with, without);
    assert_eq!(verify_span_nesting(&spans), None);
}
