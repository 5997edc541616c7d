//! Open-loop pacing: op `i` is due at `start + i × interval` whatever
//! happened to op `i − 1`. A blocking client cannot send early, so a slow
//! reply delays the ops behind it; timing every op from its due time (not
//! its send time) charges that wait to the ops that suffered it.

use std::time::{Duration, Instant};

/// Timing of one paced op.
#[derive(Debug, Clone, Copy)]
pub struct Paced {
    /// Op index in the schedule.
    pub index: u64,
    /// When the op was due.
    pub due: Instant,
    /// Completion minus due time.
    pub latency: Duration,
    /// Sent more than one interval after its due time.
    pub late: bool,
}

/// Issues ops at a fixed rate until the next one would be due at or after
/// `end`. `op(i)` performs op `i` and returns once its reply is in.
pub fn open_loop(
    start: Instant,
    interval: Duration,
    end: Instant,
    mut op: impl FnMut(u64),
) -> Vec<Paced> {
    let mut out = Vec::new();
    for index in 0.. {
        let due = start + interval * index as u32;
        if due >= end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        op(index);
        out.push(Paced {
            index,
            due,
            latency: Instant::now() - due,
            late: sent - due > interval,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Only lower bounds on time are asserted: a sleep lasts at least as
    // long as asked, but a loaded host may delay any op further.
    #[test]
    fn a_stalled_reply_is_charged_to_the_ops_queued_behind_it() {
        let interval = Duration::from_millis(5);
        let start = Instant::now();
        let stall = interval * 8;
        let paced = open_loop(start, interval, start + interval * 20, |i| {
            if i == 2 {
                std::thread::sleep(stall);
            }
        });
        assert_eq!(paced.len(), 20);
        assert!(paced[2].latency >= stall);
        // Op 3 was due one interval into the stall: it is sent at least
        // 7 intervals late, and its latency counts from its due time, not
        // from when it was sent.
        assert!(paced[3].late);
        assert!(paced[3].latency >= stall - interval);
        assert!(paced[4].latency >= stall - interval * 2);
        // Ops 3..=8 fall due before op 2's reply can arrive.
        assert!(paced[3..=8].iter().all(|p| p.late));
    }

    #[test]
    fn ops_are_not_sent_before_they_are_due() {
        let interval = Duration::from_millis(2);
        let start = Instant::now() + Duration::from_millis(5);
        let mut sent = Vec::new();
        let paced = open_loop(start, interval, start + interval * 10, |_| {
            sent.push(Instant::now())
        });
        assert_eq!(paced.len(), 10);
        for (p, s) in paced.iter().zip(&sent) {
            assert!(*s >= p.due);
        }
    }
}
