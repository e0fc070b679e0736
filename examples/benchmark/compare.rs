//! `benchmark compare a.json b.json`: two results files of `benchmark all`
//! (a = parent, b = change), every end-to-end metric of every workload
//! against its bound.

use std::process::ExitCode;

use crate::json::Json;
use crate::outcome::applies;
use crate::spec::END_TO_END;
use crate::worse_by;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// What a difference means: inside the wider of the two files' run-to-run
/// spreads nothing can be said; outside it, worse by more than the bound is a
/// regression.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Identical,
    Unresolved,
    Regression,
    Worse,
    Better,
}

pub fn verdict(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if worse_by == 0.0 {
        Verdict::Identical
    } else if worse_by.abs() <= spread {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for err in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{err}");
            }
            return ExitCode::from(2);
        }
    };
    for (label, file) in [("a", &a), ("b", &b)] {
        let env = file
            .get("environment")
            .map(Json::render)
            .unwrap_or_default();
        println!("# {label}: {env}");
    }
    let seed = |file: &Json| file.get("environment")?.get("seed")?.as_f64();
    if seed(&a) != seed(&b) {
        eprintln!(
            "the two files were measured at different seeds: numbers compare only at the same seed"
        );
        return ExitCode::from(2);
    }

    let mut regressions = 0;
    let mut compared = 0;
    for wa in a.get("workloads").map(Json::items).unwrap_or_default() {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(wb) = b
            .get("workloads")
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("\n== {name}: only in {a_path}");
            continue;
        };
        println!(
            "\n== {name}\n   {:<22} {:>16} {:>16} {:<6} {:>9} {:>8} {:>7}",
            "end-to-end", "a median", "b median", "unit", "b worse", "spread", "bound"
        );
        for m in END_TO_END.iter().filter(|m| applies(name, m.name)) {
            let read = |w: &Json, key: &str| w.get("end_to_end")?.get(m.name)?.get(key)?.as_f64();
            let (Some(ma), Some(mb)) = (read(wa, "median"), read(wb, "median")) else {
                println!("   {:<22} missing from a file", m.name);
                continue;
            };
            let spread = read(wa, "spread")
                .unwrap_or(0.0)
                .max(read(wb, "spread").unwrap_or(0.0));
            let worse = worse_by(m.better, ma, mb);
            let verdict = verdict(worse, spread, m.bound);
            compared += 1;
            regressions += usize::from(verdict == Verdict::Regression);
            println!(
                "   {:<22} {ma:>16.6} {mb:>16.6} {:<6} {:>+8.2}% {:>7.2}% {:>6.1}%  {}",
                m.name,
                m.unit,
                worse * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Identical => "identical",
                    Verdict::Unresolved => "unresolved (inside the run-to-run spread)",
                    Verdict::Regression => "REGRESSION (outside the bound)",
                    Verdict::Worse => "worse, inside the bound",
                    Verdict::Better => "better",
                }
            );
        }
    }
    println!("\n{compared} pairs compared, {regressions} outside their bound");
    if compared == 0 {
        ExitCode::from(2)
    } else if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better;

    #[test]
    fn verdicts_follow_spread_then_bound() {
        assert_eq!(verdict(0.0, 0.0, 0.01), Verdict::Identical);
        assert_eq!(verdict(0.01, 0.02, 0.07), Verdict::Unresolved);
        assert_eq!(verdict(-0.01, 0.02, 0.07), Verdict::Unresolved);
        assert_eq!(verdict(0.05, 0.02, 0.07), Verdict::Worse);
        assert_eq!(verdict(0.08, 0.02, 0.07), Verdict::Regression);
        assert_eq!(verdict(-0.10, 0.02, 0.07), Verdict::Better);
        // A spread wider than the bound hides even a regression-sized move.
        assert_eq!(verdict(0.08, 0.10, 0.07), Verdict::Unresolved);
    }

    #[test]
    fn worse_by_is_oriented_by_the_metric() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 10.0, 11.0) < 0.0);
    }
}
