//! Integration test of the §IV-C/D comparison harness: the relative ordering
//! of the four fuzzers' mutation efficiency and state coverage matches the
//! paper.

#[test]
fn comparison_ordering_matches_table7_and_fig10() {
    let runs = bench::run_comparison(3_000, 7);
    let by_name: std::collections::HashMap<_, _> = runs.iter().map(|r| (r.name, r)).collect();
    let l2fuzz = &by_name["L2Fuzz"];
    let defensics = &by_name["Defensics"];
    let bfuzz = &by_name["BFuzz"];
    let bss = &by_name["BSS"];

    // Table VII shape.
    assert!(
        l2fuzz.metrics.mp_ratio > 0.3,
        "L2Fuzz MP {:.2}",
        l2fuzz.metrics.mp_ratio
    );
    assert!(defensics.metrics.mp_ratio < 0.1);
    assert!(bss.metrics.mp_ratio == 0.0);
    assert!(bfuzz.metrics.pr_ratio > 0.6);
    assert!(l2fuzz.metrics.mutation_efficiency > defensics.metrics.mutation_efficiency);
    assert!(defensics.metrics.mutation_efficiency > bfuzz.metrics.mutation_efficiency);
    assert!(bfuzz.metrics.mutation_efficiency > bss.metrics.mutation_efficiency);

    // Packets-per-second shape (§IV-C): L2Fuzz and BFuzz are orders of
    // magnitude faster than Defensics and BSS.
    assert!(l2fuzz.metrics.packets_per_second > 50.0 * defensics.metrics.packets_per_second);
    assert!(bfuzz.metrics.packets_per_second > 50.0 * bss.metrics.packets_per_second);

    // Fig. 10 shape.
    assert_eq!(l2fuzz.coverage.count(), 13);
    assert_eq!(defensics.coverage.count(), 7);
    assert_eq!(bfuzz.coverage.count(), 6);
    assert_eq!(bss.coverage.count(), 3);

    // The sniffer's exact verdicts on these traces: transmitted, malformed,
    // received and rejected packets, and the covered-state signature.  A
    // change to how the trace analysis reads C-frames must not move them.
    let pinned = [
        ("L2Fuzz", (3019, 2032, 2132, 741), 0x6e3eb),
        ("Defensics", (3000, 30, 3000, 30), 0x062a3),
        ("BFuzz", (3001, 239, 3032, 2908), 0x042a3),
        ("BSS", (3000, 0, 3000, 0), 0x00023),
    ];
    for (name, counts, signature) in pinned {
        let run = &by_name[name];
        let m = &run.metrics;
        assert_eq!(
            (m.transmitted, m.malformed, m.received, m.rejections),
            counts,
            "{name}: sniffer counts"
        );
        assert_eq!(
            run.coverage.signature(),
            signature,
            "{name}: coverage signature {:#07x}",
            run.coverage.signature()
        );
    }
}
