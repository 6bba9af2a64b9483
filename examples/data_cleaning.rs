//! Data cleaning with discovered CFDs — the paper's motivating scenario
//! (Section 1): learn rules from a clean sample, then use them to locate
//! inconsistencies in dirty data.
//!
//! ```sh
//! cargo run --release --example data_cleaning
//! ```

use cfd_suite::datagen::noise::inject_noise;
use cfd_suite::datagen::tax::TaxGenerator;
use cfd_suite::prelude::*;

fn main() {
    // a clean sample of tax records (the synthetic workload of Section 6)
    let clean = TaxGenerator::new(2_000).seed(7).generate();
    println!(
        "clean sample: {} tuples × {} attributes",
        clean.n_rows(),
        clean.arity()
    );

    // discover cleaning rules at a support threshold that filters noise
    let k = 20;
    let discovery = Algo::FastCfd
        .discover_with(&clean, &DiscoverOptions::new(k), &Control::default())
        .unwrap();
    let rules = discovery.cover.clone();
    let (n_const, n_var) = rules.counts();
    println!(
        "discovered {} rules ({n_const} constant, {n_var} variable) at k = {k} in {:.2?}",
        rules.len(),
        discovery.total_time(),
    );
    for cfd in rules.iter().take(8) {
        println!("  {}", cfd.display(&clean));
    }
    if rules.len() > 8 {
        println!("  … {} more", rules.len() - 8);
    }

    // corrupt 0.5% of the cells
    let (dirty, corrupted) = inject_noise(&clean, 0.005, 42);
    println!("\ninjected {} cell errors", corrupted.len());

    // detect violations
    let found = detect_violations(&dirty, rules.cfds());
    println!("rules flag {} violations", found.len());

    // score: how many corrupted tuples are implicated?
    let corrupted_tuples: std::collections::HashSet<u32> =
        corrupted.iter().map(|&(t, _)| t).collect();
    let implicated: std::collections::HashSet<u32> = found
        .iter()
        .flat_map(|&(_, v)| match v {
            Violation::Single(t) => vec![t],
            Violation::Pair(t1, t2) => vec![t1, t2],
        })
        .collect();
    let caught = corrupted_tuples.intersection(&implicated).count();
    println!(
        "{caught}/{} corrupted tuples implicated by at least one rule \
         (recall {:.0}%)",
        corrupted_tuples.len(),
        100.0 * caught as f64 / corrupted_tuples.len().max(1) as f64
    );

    // show a few concrete findings
    for &(rule, v) in found.iter().take(5) {
        match v {
            Violation::Single(t) => println!(
                "  tuple {t} violates {}",
                rules.cfds()[rule].display(&dirty)
            ),
            Violation::Pair(t1, t2) => println!(
                "  tuples {t1}/{t2} violate {}",
                rules.cfds()[rule].display(&dirty)
            ),
        }
    }

    // suggest and apply repairs, then re-check (cover-level repair and
    // detection both run through the shared validation kernel)
    use cfd_suite::model::repair::apply_repairs;
    let plan = CoverPlan::compile(&dirty, rules.cfds());
    let repairs = suggest_repairs_for_cover(&dirty, &plan);
    let fixed = apply_repairs(&dirty, &repairs);
    let correct = repairs
        .iter()
        .filter(|r| fixed.value(r.tuple, r.attr) == clean.value(r.tuple, r.attr))
        .count();
    let remaining = detect_violations(&fixed, rules.cfds()).len();
    println!(
        "\nrepair pass: {} cell edits suggested, {correct} restore the original \
         value exactly; {remaining} violations remain (was {})",
        repairs.len(),
        found.len()
    );
}
