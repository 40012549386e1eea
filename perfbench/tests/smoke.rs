//! Runs every workload registered in `BENCHMARK.json` at the tiny size,
//! untraced and traced, and checks that each registered metric is printed
//! with the unit and direction the registry gives it, and that the result
//! line is well formed and correct.

use std::path::Path;
use std::process::Command;

struct Registered {
    name: String,
    unit: String,
    better: String,
}

/// The string value of `"key": "value"` inside one flat JSON object.
fn field(obj: &str, key: &str) -> Option<String> {
    let at = obj.find(&format!("\"{key}\""))?;
    let rest = &obj[at + key.len() + 2..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// The flat objects of the JSON array under `key`.
fn objects(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let array = &json[start..];
    let array =
        &array[array.find('[').expect("array opens")..array.find(']').expect("array closes")];
    array
        .split('}')
        .filter_map(|o| o.find('{').map(|i| o[i..].to_string()))
        .collect()
}

fn registered(json: &str, key: &str) -> Vec<Registered> {
    objects(json, key)
        .iter()
        .map(|o| Registered {
            name: field(o, "name").expect("name"),
            unit: field(o, "unit").expect("unit"),
            better: field(o, "better").expect("better"),
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (bool, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--size",
            "tiny",
            "--seconds",
            "0",
            "--seed",
            "7",
            "--trace",
            trace,
        ])
        .current_dir(dir)
        .output()
        .expect("perfbench runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn every_workload_prints_every_registered_metric() {
    let json =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let workloads: Vec<String> = objects(&json, "workloads")
        .iter()
        .map(|o| field(o, "name").expect("name"))
        .collect();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, metrics) in [
            ("0", registered(&json, "end_to_end")),
            ("1", registered(&json, "per_layer")),
        ] {
            let (ok, stdout) = run(workload, trace);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let printed: Vec<&str> = stdout
                .lines()
                .filter(|l| l.starts_with("metric "))
                .collect();
            assert_eq!(
                printed.len(),
                metrics.len(),
                "{workload} --trace {trace} prints exactly the registered metrics"
            );
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\":true,\"attempted\":"),
                "{result}"
            );
            assert!(result.contains("\"failed\":0,\"metrics\":{"), "{result}");
            for m in &metrics {
                let line = printed
                    .iter()
                    .find(|l| l.split(' ').nth(1) == Some(m.name.as_str()))
                    .unwrap_or_else(|| {
                        panic!("{workload} --trace {trace} does not print {}", m.name)
                    });
                let parts: Vec<&str> = line.split(' ').collect();
                let value: f64 = parts[2].parse().expect("numeric value");
                assert!(value.is_finite(), "{line}");
                assert_eq!(parts[3], m.unit, "unit of {}", m.name);
                assert_eq!(parts[4], m.better, "direction of {}", m.name);
                let entry = format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, parts[2], m.unit
                );
                assert!(result.contains(&entry), "result line lacks {entry}");
            }
        }
    }
}

#[test]
fn unknown_workload_fails() {
    let (ok, stdout) = run("no-such-workload", "0");
    assert!(!ok);
    assert!(!stdout.contains("\"correct\""));
}
