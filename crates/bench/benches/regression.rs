//! Criterion bench: the offline regression (Section 2.5), including the
//! weighted-versus-unweighted ablation called out in DESIGN.md.

use analysis::{pool_intervals, regress, regress_intervals, RegressionOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use hw_model::catalog::{blink_catalog, led_state};
use hw_model::{Energy, PowerModel, SimDuration, SimTime, StateVector};
use std::sync::Arc;

fn blink_like_intervals(n_cycles: usize) -> (Vec<analysis::PowerInterval>, Arc<hw_model::Catalog>) {
    let (cat, _cpu, leds) = blink_catalog();
    let cat = Arc::new(cat);
    let model = PowerModel::ideal(cat.clone());
    let mut intervals = Vec::new();
    let mut cumulative = 0.0f64;
    let mut prev = 0u64;
    let mut t = SimTime::ZERO;
    let dur = SimDuration::from_millis(250);
    for cycle in 0..n_cycles {
        for mask in 0..8u8 {
            let mut sv = StateVector::baseline(&cat);
            for (i, led) in leds.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    sv.set_state(*led, led_state::ON);
                }
            }
            cumulative += model.energy_over(&sv, dur).as_micro_joules();
            let counts = cumulative.floor() as u64;
            intervals.push(analysis::PowerInterval {
                start: t,
                end: t + dur,
                counts: (counts - prev) as u32,
                states: sv.key(),
            });
            prev = counts;
            t += dur;
        }
        let _ = cycle;
    }
    (intervals, cat)
}

fn bench_regression(c: &mut Criterion) {
    let mut group = c.benchmark_group("regression");
    for n_cycles in [8usize, 64, 256] {
        let (intervals, cat) = blink_like_intervals(n_cycles);
        group.bench_function(
            format!("pool_and_regress_{}_intervals", intervals.len()),
            |b| {
                b.iter(|| {
                    regress_intervals(
                        std::hint::black_box(&intervals),
                        &cat,
                        Energy::from_micro_joules(1.0),
                        RegressionOptions::default(),
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_weight_ablation(c: &mut Criterion) {
    let (intervals, cat) = blink_like_intervals(64);
    let obs = pool_intervals(&intervals, Energy::from_micro_joules(1.0));
    let mut group = c.benchmark_group("regression_weights_ablation");
    for (name, weighted) in [("weighted", true), ("unweighted", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                regress(
                    std::hint::black_box(&obs),
                    &cat,
                    RegressionOptions {
                        weighted,
                        include_constant: true,
                    },
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_regression, bench_weight_ablation);
criterion_main!(benches);
