//! Traffic: fixed-rate schedules over two keep-alive connections, and
//! closed-loop callers (saturation, and the bulk callers with their
//! writes).
//!
//! Each connection carries one request at a time (HTTP/1.1 without
//! pipelining). In a fixed-rate phase request `i` is due at `start +
//! i / rate` whatever the replies do, alternating between the two
//! connections; when a connection is still busy at a due time the send
//! is late, and the lateness is part of that request's latency, which is
//! always timed from the due time.

use crate::inputs::{Inputs, Promotion};
use crate::stats::{percentile, sorted};
use crate::wire::{Conn, Reply};
use mcond_core::LiveBase;
use mcond_gnn::GnnModel;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The latency limit the saturation rate is checked against, on its p90.
pub const LIMIT_MS: f64 = 10.0;
/// A fixed-rate phase stops sending once it runs this far behind; the
/// requests it then skips count as failures.
const ABORT_LATE_MS: f64 = 1000.0;

/// The host's cumulative CPU steal and total ticks (`/proc/stat`).
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSample {
    pub steal: u64,
    pub total: u64,
}

impl HostSample {
    fn now() -> Self {
        let ticks: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_owned))
            .map(|l| l.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect())
            .unwrap_or_default();
        Self { steal: ticks.get(7).copied().unwrap_or(0), total: ticks.iter().sum() }
    }
}

/// CPU time this process has used so far (all threads, live and
/// exited, user + system), in seconds, from `/proc/self/stat` (10 ms
/// ticks); 0 where that file is missing.
#[must_use]
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// How often a phase samples the server's CPU time.
const CPU_WINDOW: Duration = Duration::from_millis(500);
/// Fewest answers a window needs to count towards a per-request figure.
const MIN_WINDOW_ANSWERS: usize = 20;

/// CPU time by thread at one moment: `(thread id, ns on CPU)` from
/// `/proc/self/task/*/schedstat`.
#[derive(Clone, Debug, Default)]
pub struct CpuSnap {
    pub t_us: f64,
    threads: Vec<(u64, u64)>,
}

impl CpuSnap {
    /// With `server_only`, just the program's threads: the front end's
    /// and the pool's are all named `mcond-…`, the benchmark's are not.
    fn take(clock: Clock, server_only: bool) -> Self {
        let threads = std::fs::read_dir("/proc/self/task")
            .map(|dir| {
                dir.flatten()
                    .filter(|e| {
                        !server_only
                            || std::fs::read_to_string(e.path().join("comm"))
                                .is_ok_and(|name| name.starts_with("mcond"))
                    })
                    .filter_map(|e| {
                        let tid = e.file_name().to_str()?.parse().ok()?;
                        let stat = std::fs::read_to_string(e.path().join("schedstat")).ok()?;
                        Some((tid, stat.split_whitespace().next()?.parse().ok()?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        Self { t_us: clock.now(), threads }
    }

    /// CPU seconds from `earlier` to `self`: the growth of every thread
    /// alive now (a thread started in between counts from zero).
    #[must_use]
    pub fn since(&self, earlier: &CpuSnap) -> f64 {
        let ns: u64 = self
            .threads
            .iter()
            .map(|(tid, now)| {
                let was = earlier.threads.iter().find(|(t, _)| t == tid).map_or(0, |(_, v)| *v);
                now.saturating_sub(was)
            })
            .sum();
        #[allow(clippy::cast_precision_loss)]
        let s = ns as f64 / 1e9;
        s
    }
}

/// Samples the server's CPU time every [`CPU_WINDOW`] until `done`.
fn sample_cpu(clock: Clock, done: impl Fn() -> bool) -> Vec<CpuSnap> {
    let mut out = vec![CpuSnap::take(clock, true)];
    while !done() {
        std::thread::sleep(CPU_WINDOW);
        out.push(CpuSnap::take(clock, true));
    }
    out.push(CpuSnap::take(clock, true));
    out
}

/// Microsecond clock shared by every record of a run.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    #[must_use]
    pub fn start() -> Self {
        Self(Instant::now())
    }

    #[must_use]
    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.0).as_secs_f64() * 1e6
    }

    #[must_use]
    pub fn now(&self) -> f64 {
        self.us(Instant::now())
    }
}

/// One read.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Caller (connection) index.
    pub caller: u8,
    /// Pool index of the request sent.
    pub req: u32,
    pub due_us: f64,
    pub sent_us: f64,
    pub done_us: f64,
    pub reply: Reply,
}

impl Sample {
    /// Due → reply, in ms.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        (self.done_us - self.due_us) / 1e3
    }

    /// Due → send, in ms.
    #[must_use]
    pub fn late_ms(&self) -> f64 {
        (self.sent_us - self.due_us) / 1e3
    }

    #[must_use]
    pub fn ok(&self) -> bool {
        self.reply.status == 200
    }
}

/// One promote → save → reload write.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteSample {
    pub start_us: f64,
    pub promote_us: f64,
    /// Checkpoint assembly + atomic save.
    pub save_us: f64,
    /// `POST /v1/admin/reload` round trip.
    pub reload_us: f64,
    pub total_us: f64,
    /// CPU time of every thread (writer and server) during the write.
    pub cpu_us: f64,
    pub save_bytes: u64,
    pub status: u16,
    /// Epoch the reload installed.
    pub epoch: u64,
}

/// Everything one phase sent and got back.
#[derive(Debug, Default)]
pub struct Phase {
    pub name: String,
    /// Offered rate (0 for a closed loop).
    pub offered_rps: f64,
    pub samples: Vec<Sample>,
    /// Requests scheduled but never sent because the phase fell too far
    /// behind; they count as failures.
    pub unsent: usize,
    pub wall_s: f64,
    /// Server CPU snapshots through the phase, every [`CPU_WINDOW`].
    pub cpu: Vec<CpuSnap>,
    /// Host CPU counters at the phase's start and end.
    pub host: (HostSample, HostSample),
    pub writes: Vec<WriteSample>,
}

impl Phase {
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.samples.len() + self.unsent + self.writes.len()
    }

    #[must_use]
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok()).count()
            + self.unsent
            + self.writes.iter().filter(|w| w.status != 200).count()
    }

    /// Latencies of the reads in send order (failures excluded — they
    /// are counted, and a phase with any fails the latency limit).
    #[must_use]
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut s: Vec<&Sample> = self.samples.iter().filter(|s| s.ok()).collect();
        s.sort_by(|a, b| a.due_us.total_cmp(&b.due_us));
        s.iter().map(|s| s.latency_ms()).collect()
    }

    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> f64 {
        percentile(&sorted(self.latencies_ms()), q)
    }

    #[must_use]
    pub fn late_quantile(&self, q: f64) -> f64 {
        percentile(&sorted(self.samples.iter().map(Sample::late_ms)), q)
    }

    /// Inductive nodes answered per second of phase wall time.
    #[must_use]
    pub fn nodes_per_s(&self, inputs: &Inputs) -> f64 {
        let nodes: usize = self.samples.iter().filter(|s| s.ok()).map(|s| inputs.nodes(s.req)).sum();
        #[allow(clippy::cast_precision_loss)]
        let n = nodes as f64;
        n / self.wall_s.max(1e-9)
    }

    /// Server CPU seconds over the whole phase.
    #[must_use]
    pub fn cpu_s(&self) -> f64 {
        match (self.cpu.first(), self.cpu.last()) {
            (Some(a), Some(b)) => b.since(a),
            _ => 0.0,
        }
    }

    /// `(server CPU seconds, weight)` of every sampling window with at
    /// least [`MIN_WINDOW_ANSWERS`] answers, where weight sums `weight`
    /// over the answers completed in it; the whole phase as one window
    /// when none has that many.
    #[must_use]
    pub fn cpu_windows(&self, weight: impl Fn(&Sample) -> usize) -> Vec<(f64, usize)> {
        let windows: Vec<(f64, usize)> = self
            .cpu
            .windows(2)
            .filter_map(|w| {
                let done: Vec<&Sample> = self
                    .samples
                    .iter()
                    .filter(|s| s.ok() && s.done_us >= w[0].t_us && s.done_us < w[1].t_us)
                    .collect();
                (done.len() >= MIN_WINDOW_ANSWERS)
                    .then(|| (w[1].since(&w[0]), done.iter().map(|s| weight(s)).sum()))
            })
            .collect();
        if windows.is_empty() {
            let all = self.samples.iter().filter(|s| s.ok()).map(&weight).sum();
            return vec![(self.cpu_s(), all)];
        }
        windows
    }

    /// Share of all host CPU time that the hypervisor gave to other
    /// tenants (`steal`) while the phase ran.
    #[must_use]
    pub fn host_steal(&self) -> f64 {
        let (a, b) = self.host;
        #[allow(clippy::cast_precision_loss)]
        let share = b.steal.saturating_sub(a.steal) as f64 / b.total.saturating_sub(a.total).max(1) as f64;
        share
    }
}

/// Sleeps until `due`. No spinning: on a 2-core box a spinning
/// generator would take CPU from the server it measures; the scheduler's
/// wake-up slack shows up as generator lateness instead.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Replaces every connection with a fresh one before a phase: the
/// server closes keep-alive connections that sat idle longer than its
/// read timeout (5 s by default), as the second bulk caller's does while
/// the one-caller phase runs.
pub fn reconnect(conns: &mut [Conn], addr: SocketAddr) {
    for conn in conns {
        if let Ok(fresh) = Conn::open(addr) {
            *conn = fresh;
        }
    }
}

/// One round trip; a broken connection is replaced and the request
/// counts as failed.
fn call(conn: &mut Conn, addr: SocketAddr, request: &[u8]) -> Reply {
    conn.call(request).unwrap_or_else(|_| {
        if let Ok(fresh) = Conn::open(addr) {
            *conn = fresh;
        }
        Reply::default()
    })
}

/// Sends `count` requests from stream position `first` at `rate`
/// requests/s, alternating between the connections, and stops a
/// connection early once it runs [`ABORT_LATE_MS`] behind.
#[allow(clippy::too_many_arguments)]
pub fn fixed_rate(
    clock: Clock,
    conns: &mut [Conn],
    addr: SocketAddr,
    inputs: &Inputs,
    name: &str,
    first: usize,
    rate: f64,
    count: usize,
) -> Phase {
    let lanes = conns.len();
    let start = Instant::now() + Duration::from_millis(1);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let host0 = HostSample::now();
    let (per_lane, cpu): (Vec<(Vec<Sample>, usize)>, _) = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(count / lanes + 1);
                    let mut unsent = 0;
                    for i in (lane..count).step_by(lanes) {
                        #[allow(clippy::cast_possible_truncation)]
                        let due = start + interval * (i as u32);
                        if Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
                            > ABORT_LATE_MS
                        {
                            unsent += 1;
                            continue;
                        }
                        wait_until(due);
                        let (req, wire) = inputs.at(0, first + i);
                        let sent = Instant::now();
                        let reply = call(conn, addr, &wire.bytes);
                        #[allow(clippy::cast_possible_truncation)]
                        out.push(Sample {
                            caller: lane as u8,
                            req,
                            due_us: clock.us(due),
                            sent_us: clock.us(sent),
                            done_us: clock.now(),
                            reply,
                        });
                    }
                    (out, unsent)
                })
            })
            .collect();
        let cpu = sample_cpu(clock, || workers.iter().all(|w| w.is_finished()));
        (workers.into_iter().map(|w| w.join().expect("load thread panicked")).collect(), cpu)
    });
    let mut phase = Phase {
        name: name.to_owned(),
        offered_rps: rate,
        host: (host0, HostSample::now()),
        cpu,
        ..Phase::default()
    };
    for (samples, unsent) in per_lane {
        phase.samples.extend(samples);
        phase.unsent += unsent;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        phase.wall_s = count as f64 / rate;
    }
    phase
}

/// The write path: promote a scheduled slice into the live base, save the
/// grown checkpoint, and hot-reload it over HTTP.
pub struct Writer<'a> {
    live: LiveBase,
    model: &'a GnnModel,
    schedule: &'a [Promotion],
    next: usize,
    /// `(epoch, checkpoint file)` for every epoch a reload installed.
    pub epochs: Vec<(u64, PathBuf)>,
}

impl<'a> Writer<'a> {
    #[must_use]
    pub fn new(live: LiveBase, model: &'a GnnModel, schedule: &'a [Promotion]) -> Self {
        Self { live, model, schedule, next: 0, epochs: Vec::new() }
    }

    /// Nodes in the live base now.
    #[must_use]
    pub fn base_nodes(&self) -> usize {
        self.live.base().num_nodes()
    }

    /// One write over `conn`.
    pub fn write(&mut self, clock: Clock, conn: &mut Conn) -> WriteSample {
        let step = &self.schedule[self.next % self.schedule.len()];
        self.next += 1;
        let cpu0 = CpuSnap::take(clock, false);
        let t0 = Instant::now();
        let mut w = WriteSample { start_us: clock.us(t0), ..WriteSample::default() };
        if self.live.promote(&step.delta).is_err() {
            return w;
        }
        let t1 = Instant::now();
        let saved = self.live.checkpoint(self.model).map(|c| c.save(&step.path));
        let t2 = Instant::now();
        let Ok(Ok(bytes)) = saved else { return w };
        w.save_bytes = bytes;
        if let Ok((reply, body)) = conn.call_body(&step.reload) {
            w.status = reply.status;
            w.epoch = std::str::from_utf8(body)
                .ok()
                .and_then(|t| mcond_obs::json::Json::parse(t).ok())
                .and_then(|j| j.get("epoch").and_then(mcond_obs::json::Json::as_f64))
                .map_or(0, |e| {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let e = e as u64;
                    e
                });
        }
        let t3 = Instant::now();
        if w.status == 200 {
            self.epochs.push((w.epoch, step.path.clone()));
        }
        w.promote_us = (t1 - t0).as_secs_f64() * 1e6;
        w.save_us = (t2 - t1).as_secs_f64() * 1e6;
        w.reload_us = (t3 - t2).as_secs_f64() * 1e6;
        w.total_us = (t3 - t0).as_secs_f64() * 1e6;
        w.cpu_us = CpuSnap::take(clock, false).since(&cpu0) * 1e6;
        w
    }
}

/// `count` writes back to back over `conn` on an otherwise idle server.
pub fn write_phase(clock: Clock, conn: &mut Conn, addr: SocketAddr, writer: &mut Writer<'_>, count: usize) -> Phase {
    reconnect(std::slice::from_mut(conn), addr);
    let host0 = HostSample::now();
    let start = Instant::now();
    let writes = (0..count).map(|_| writer.write(clock, conn)).collect();
    Phase {
        name: "writes".to_owned(),
        writes,
        wall_s: start.elapsed().as_secs_f64(),
        host: (host0, HostSample::now()),
        ..Phase::default()
    }
}

/// `callers` closed-loop callers post requests back to back for
/// `duration`; caller 0 writes after every `write_every`-th of its own
/// requests. `pos[c]` is caller `c`'s stream
/// position, advanced in place, so the write cadence continues across
/// phases.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    clock: Clock,
    conns: &mut [Conn],
    addr: SocketAddr,
    inputs: &Inputs,
    name: &str,
    callers: usize,
    pos: &mut [usize],
    duration: Duration,
    write_every: usize,
    writer: &mut Writer<'_>,
) -> Phase {
    let host0 = HostSample::now();
    let start = Instant::now();
    let end = start + duration;
    let (lead, rest) = conns.split_at_mut(1);
    let (lead_pos, rest_pos) = pos.split_at_mut(1);
    let caller = |c: usize, conn: &mut Conn, pos: &mut usize, mut writer: Option<&mut Writer<'_>>| {
        let mut samples = Vec::new();
        let mut writes = Vec::new();
        let mut ready = Instant::now();
        while Instant::now() < end {
            let (req, wire) = inputs.at(c, *pos);
            *pos += 1;
            let sent = Instant::now();
            let reply = call(conn, addr, &wire.bytes);
            #[allow(clippy::cast_possible_truncation)]
            samples.push(Sample {
                caller: c as u8,
                req,
                // A closed loop has no schedule: the request is due when
                // the caller is ready, so lateness is the caller's own
                // gap between one reply and the next send.
                due_us: clock.us(ready),
                sent_us: clock.us(sent),
                done_us: clock.now(),
                reply,
            });
            if let Some(w) = writer.as_deref_mut() {
                if pos.is_multiple_of(write_every) {
                    writes.push(w.write(clock, conn));
                }
            }
            ready = Instant::now();
        }
        (samples, writes)
    };
    let results = std::thread::scope(|scope| {
        let caller = &caller;
        let mut handles = vec![scope.spawn(move || caller(0, &mut lead[0], &mut lead_pos[0], Some(writer)))];
        for (i, (conn, p)) in rest.iter_mut().zip(rest_pos.iter_mut()).take(callers - 1).enumerate() {
            handles.push(scope.spawn(move || caller(i + 1, conn, p, None)));
        }
        let cpu = sample_cpu(clock, || handles.iter().all(|h| h.is_finished()));
        (handles.into_iter().map(|h| h.join().expect("bulk caller panicked")).collect::<Vec<_>>(), cpu)
    });
    let (results, cpu) = results;
    let host = (host0, HostSample::now());
    let mut phase = Phase { name: name.to_owned(), host, cpu, ..Phase::default() };
    for (samples, writes) in results {
        phase.samples.extend(samples);
        phase.writes.extend(writes);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Saturation: every connection sends one request per round, all at
/// once, and the next round starts when every reply is in. Sending in
/// lockstep gives the batcher one request per connection in each
/// coalesce window; free-running callers instead settle into either
/// merged or alternating batches and stay there for a whole run, which
/// makes their rate bimodal (about 1200 vs 2200 req/s with Eq. 11).
pub fn lockstep(
    clock: Clock,
    conns: &mut [Conn],
    addr: SocketAddr,
    inputs: &Inputs,
    pos: &mut [usize],
    duration: Duration,
) -> Phase {
    let host0 = HostSample::now();
    let start = Instant::now();
    let end = start + duration;
    let barrier = Barrier::new(conns.len());
    let stop = AtomicBool::new(false);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(pos.iter_mut())
            .enumerate()
            .map(|(c, (conn, pos))| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        // The barrier orders the leader's `stop` store
                        // (made before it arrived) before every load.
                        let round = barrier.wait();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let ready = Instant::now();
                        let (req, wire) = inputs.at(c, *pos);
                        *pos += 1;
                        let reply = call(conn, addr, &wire.bytes);
                        #[allow(clippy::cast_possible_truncation)]
                        samples.push(Sample {
                            caller: c as u8,
                            req,
                            due_us: clock.us(ready),
                            sent_us: clock.us(ready),
                            done_us: clock.now(),
                            reply,
                        });
                        if round.is_leader() && Instant::now() >= end {
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                    samples
                })
            })
            .collect();
        let cpu = sample_cpu(clock, || handles.iter().all(|h| h.is_finished()));
        (handles.into_iter().map(|h| h.join().expect("saturation caller panicked")).collect::<Vec<_>>(), cpu)
    });
    let (results, cpu) = results;
    let host = (host0, HostSample::now());
    let mut phase = Phase { name: "saturation".to_owned(), host, cpu, ..Phase::default() };
    phase.samples = results.into_iter().flatten().collect();
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}
