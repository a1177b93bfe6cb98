//! `fastvg-benchmark-summary FILE...` — the median and quartiles of
//! each metric across runs.
//!
//! Each FILE holds one run's standard output; its last line is the
//! result object. Prints, per metric, the run count, the median, the
//! quartiles and their distance as a share of the median (the spread a
//! metric's bound in `BENCHMARK.json` is compared with). Exits 1 if a
//! file holds no result or a run reported `"correct": false`.

use fastvg_benchmark::stats::{median, quartiles, relative_spread};
use fastvg_wire::Json;
use std::collections::BTreeMap;

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: fastvg-benchmark-summary RUN_OUTPUT...");
        std::process::exit(2);
    }
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut ok = true;
    for file in &files {
        let result = std::fs::read_to_string(file)
            .ok()
            .and_then(|text| text.lines().last().map(str::to_string))
            .and_then(|line| Json::parse(&line).ok())
            .filter(|doc| doc.get("metrics").is_some());
        let Some(doc) = result else {
            eprintln!("{file}: no result line");
            ok = false;
            continue;
        };
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            eprintln!("{file}: run reported incorrect output");
            ok = false;
        }
        for (name, metric) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let (Some(value), Some(unit)) = (
                metric.get("value").and_then(Json::as_f64),
                metric.get("unit").and_then(Json::as_str),
            ) else {
                continue;
            };
            let entry = values
                .entry(name.clone())
                .or_insert_with(|| (Vec::new(), unit.to_string()));
            entry.0.push(value);
        }
    }
    println!(
        "{:<36} {:>4} {:>14} {:>14} {:>14} {:>9}",
        "metric", "runs", "median", "q1", "q3", "spread"
    );
    for (name, (vals, unit)) in &values {
        let med = median(vals).unwrap_or(f64::NAN);
        let [q1, _, q3] = quartiles(vals).unwrap_or([f64::NAN; 3]);
        let spread =
            relative_spread(vals).map_or("-".to_string(), |s| format!("{:.2}%", 100.0 * s));
        println!(
            "{:<36} {:>4} {:>14.6} {:>14.6} {:>14.6} {:>9}  {unit}",
            name,
            vals.len(),
            med,
            q1,
            q3,
            spread
        );
    }
    if !ok {
        std::process::exit(1);
    }
}
