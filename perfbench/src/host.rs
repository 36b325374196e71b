//! Host interference: on a shared virtual machine the hypervisor takes CPU
//! time from the guest ("steal", the 8th counter of a `cpu` line in
//! `/proc/stat`). Runs report the share they lost, and the serving workloads
//! leave out the stretches of a phase where the host took too much. Also
//! here: pinning a run to one CPU.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `(steal, total)` clock ticks since boot, of one CPU or summed over all.
pub fn ticks(cpu: Option<usize>) -> (u64, u64) {
    let label = cpu.map_or("cpu".to_string(), |cpu| format!("cpu{cpu}"));
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find(|line| line.split_whitespace().next() == Some(label.as_str()))
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Confines the calling thread to the lowest-numbered CPU it may run on and
/// returns that CPU. Threads and child processes started afterwards inherit
/// the confinement.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed = [0u8; 128];
    // SAFETY: the buffer outlives the call, and its length is the size passed.
    if unsafe { sched_getaffinity(0, allowed.len(), allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "cannot read the CPU affinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..allowed.len() * 8)
        .find(|&cpu| allowed[cpu / 8] & (1 << (cpu % 8)) != 0)
        .ok_or("the CPU affinity allows no CPU")?;
    let mut only = [0u8; 128];
    only[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: as above; the mask holds exactly one allowed CPU.
    if unsafe { sched_setaffinity(0, only.len(), only.as_ptr()) } != 0 {
        return Err(format!(
            "cannot pin to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Steal share of the CPU time between two [`ticks`] readings.
pub fn steal_between(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Reads one CPU's [`ticks`] every `period` on a thread of its own, so a
/// phase can later ask how much the host took in any stretch of it.
pub struct StealMonitor {
    origin: Instant,
    cpu: usize,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(f64, (u64, u64))>>,
}

/// The readings of a stopped [`StealMonitor`]: seconds since its origin and
/// the ticks then.
pub struct StealLog {
    origin: Instant,
    readings: Vec<(f64, (u64, u64))>,
}

impl StealMonitor {
    pub fn start(period: Duration, cpu: usize) -> StealMonitor {
        let origin = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut readings = vec![(0.0, ticks(Some(cpu)))];
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(period);
                readings.push((origin.elapsed().as_secs_f64(), ticks(Some(cpu))));
            }
            readings
        });
        StealMonitor {
            origin,
            cpu,
            stop,
            thread,
        }
    }

    pub fn stop(self) -> StealLog {
        self.stop.store(true, Ordering::Relaxed);
        let mut readings = self.thread.join().expect("steal monitor panicked");
        readings.push((self.origin.elapsed().as_secs_f64(), ticks(Some(self.cpu))));
        StealLog {
            origin: self.origin,
            readings,
        }
    }
}

impl StealLog {
    /// Steal share over `[from, to)`, widened to the readings around it.
    pub fn share(&self, from: Instant, to: Instant) -> f64 {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let (from_s, to_s) = (at(from), at(to));
        let first = self
            .readings
            .iter()
            .rev()
            .find(|(s, _)| *s <= from_s)
            .unwrap_or(&self.readings[0]);
        let last = self
            .readings
            .iter()
            .find(|(s, _)| *s >= to_s)
            .unwrap_or(&self.readings[self.readings.len() - 1]);
        steal_between(first.1, last.1)
    }

    /// Steal share over the whole log.
    pub fn total(&self) -> f64 {
        steal_between(self.readings[0].1, self.readings[self.readings.len() - 1].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_a_ratio_of_tick_deltas() {
        assert_eq!(steal_between((10, 100), (20, 200)), 0.1);
        assert_eq!(steal_between((10, 100), (10, 100)), 0.0);
    }

    #[test]
    fn a_stretch_is_widened_to_the_readings_around_it() {
        let origin = Instant::now();
        let log = StealLog {
            origin,
            readings: vec![
                (0.0, (0, 0)),
                (1.0, (10, 100)),
                (2.0, (60, 200)),
                (3.0, (60, 300)),
            ],
        };
        let at = |s: f64| origin + Duration::from_secs_f64(s);
        assert_eq!(log.share(at(1.0), at(2.0)), 0.5);
        assert_eq!(log.share(at(1.5), at(2.5)), 0.25);
        assert_eq!(log.total(), 0.2);
    }
}
