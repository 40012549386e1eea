//! File and job specifications — the interface between workload synthesis
//! and the MapReduce simulator.

use dare_simcore::{SimDuration, SimTime};

/// A file in the simulated dataset (created during ingest, before jobs run).
#[derive(Debug, Clone)]
pub struct FileSpec {
    /// Path-like name.
    pub name: String,
    /// Logical size in bytes; the DFS splits it into blocks.
    pub size_bytes: u64,
}

/// One MapReduce job from the trace.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Dense id in submission order.
    pub id: u32,
    /// Submission time.
    pub arrival: SimTime,
    /// Index into [`Workload::files`] of the input file. The job runs one
    /// map task per block of that file.
    pub file: usize,
    /// Pure compute time of each map task (after its input is read).
    pub map_compute: SimDuration,
    /// Number of reduce tasks.
    pub reduces: u32,
    /// Total shuffle+output bytes the reduce phase handles.
    pub output_bytes: u64,
}

/// A full experiment workload: the dataset plus the job arrival sequence.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name ("wl1", "wl2", ...).
    pub name: String,
    /// Files ingested before the first job.
    pub files: Vec<FileSpec>,
    /// Jobs in submission order.
    pub jobs: Vec<JobSpec>,
}

impl Workload {
    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Total dataset size (single copy).
    pub fn dataset_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size_bytes).sum()
    }

    /// Map-task count of one job given the DFS block size.
    pub fn maps_of(&self, job: &JobSpec, block_size: u64) -> u64 {
        let sz = self.files[job.file].size_bytes;
        sz.div_ceil(block_size)
    }

    /// Sanity-check invariants (jobs sorted by arrival, indices in range).
    pub fn validate(&self) -> Result<(), String> {
        for w in self.jobs.windows(2) {
            if w[0].arrival > w[1].arrival {
                return Err(format!(
                    "jobs {} and {} out of arrival order",
                    w[0].id, w[1].id
                ));
            }
        }
        for j in &self.jobs {
            if j.file >= self.files.len() {
                return Err(format!("job {} reads unknown file {}", j.id, j.file));
            }
            if j.reduces == 0 {
                return Err(format!("job {} has zero reduces", j.id));
            }
        }
        if self.files.iter().any(|f| f.size_bytes == 0) {
            return Err("zero-sized file in dataset".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workload {
        Workload {
            name: "t".into(),
            files: vec![
                FileSpec {
                    name: "a".into(),
                    size_bytes: 300,
                },
                FileSpec {
                    name: "b".into(),
                    size_bytes: 100,
                },
            ],
            jobs: vec![
                JobSpec {
                    id: 0,
                    arrival: SimTime::ZERO,
                    file: 0,
                    map_compute: SimDuration::from_secs(10),
                    reduces: 1,
                    output_bytes: 10,
                },
                JobSpec {
                    id: 1,
                    arrival: SimTime::from_secs(5),
                    file: 1,
                    map_compute: SimDuration::from_secs(10),
                    reduces: 1,
                    output_bytes: 10,
                },
            ],
        }
    }

    #[test]
    fn totals_and_maps() {
        let w = tiny();
        assert_eq!(w.num_jobs(), 2);
        assert_eq!(w.dataset_bytes(), 400);
        assert_eq!(w.maps_of(&w.jobs[0], 128), 3);
        assert_eq!(w.maps_of(&w.jobs[1], 128), 1);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn validate_catches_out_of_order_arrivals() {
        let mut w = tiny();
        w.jobs[1].arrival = SimTime::ZERO;
        w.jobs[0].arrival = SimTime::from_secs(9);
        assert!(w.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_file_index() {
        let mut w = tiny();
        w.jobs[0].file = 99;
        assert!(w.validate().is_err());
    }
}
