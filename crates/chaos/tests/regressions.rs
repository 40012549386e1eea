//! Shrunk chaos counterexamples replayed as fixed regression witnesses.

use dare_chaos::{run_plan, ChaosConfig, ChaosEnv, Verdict};
use dare_mapred::FaultPlan;

/// A rejoin re-queued a block whose two earlier repairs were still in
/// flight; recovery started a third and the block ended with 5 primary
/// replicas against RF 3 (`primary-within-rf`). Recovery must count
/// in-flight repairs toward the replication factor.
#[test]
fn rejoin_does_not_over_replicate_a_block_under_repair() {
    let cfg = ChaosConfig {
        nodes: 50,
        seed: 14_792_868_931_819_832_567,
        ..ChaosConfig::default()
    };
    let env = ChaosEnv::new(&cfg);
    let plan = FaultPlan::from_json(
        r#"{
  "version": 1,
  "detect_heartbeats": 10,
  "max_task_attempts": 4,
  "retry_backoff_secs": 5,
  "max_recovery_streams": 4,
  "events": [
    {"kind": "kill", "at_secs": 208, "node": 17},
    {"kind": "crash", "at_secs": 222, "node": 1, "down_secs": 31},
    {"kind": "gray_node", "at_secs": 231, "node": 40, "secs": 24, "disk_factor": 2.217830704941167, "nic_factor": 7.547651609737029}
  ]
}"#,
    )
    .unwrap();
    let (outcome, _) = run_plan(&cfg, &env, &plan, false);
    assert_eq!(outcome.verdict, Verdict::Clean);
}
