//! The host's speed, sampled while a run measures.
//!
//! A shared host does not give a benchmark the same speed from one
//! second to the next. On a 2-vCPU Xeon guest, a fixed loop timed on
//! each vCPU in turn ran either fast or ~1.4x slower, each vCPU
//! switching on its own every few seconds with no steal time showing
//! (the pattern of a hyperthread sibling that other tenants load), and
//! ten-second medians of the same loop differed by up to 35%. Every
//! wall-clock figure of a run moves with that. [`Speed`] times a fixed
//! reference at the edges of every measured slice of a run. A slice's
//! *host factor* is the reference's time around it over the
//! reference's nominal time: above 1 the host ran slow. A time
//! measured over a set-up or a phase is divided by the mean factor of
//! its slices and a rate multiplied by it, which gives each figure at
//! the reference speed; the raw figures are printed beside them.
//!
//! The reference is written here against `std` alone, so that no change
//! to the repository's crates moves it, and has the shape of the
//! workload it calibrates: [`Reference::Cpu`] is a fixed job of the
//! kinds of work the engines do (hashing, ordered-map churn, sorting,
//! string formatting), timed on a thread of its own; [`Reference::Rpc`]
//! is a closed loop of loopback TCP round trips to a thread that does
//! a slice of that job per request, so it also pays the socket and
//! thread wake-ups a served request pays.

use crate::measure::p50;
use crate::rng::Rng;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Which reference calibrates a workload.
#[derive(Clone, Copy, Debug)]
pub enum Reference {
    /// In-process work, timed on the reference's own thread.
    Cpu,
    /// Request/reply over loopback TCP to a worker thread.
    Rpc,
}

/// Iterations of one [`Reference::Cpu`] job (a few milliseconds).
const CPU_ITERATIONS: u64 = 24_000;
/// CPU jobs timed per sample; the sample is their median.
const CPU_JOBS: usize = 3;
/// Iterations of the job run per [`Reference::Rpc`] request.
const RPC_ITERATIONS: u64 = 500;
/// Round trips timed per [`Reference::Rpc`] sample.
const RPC_TRIPS: usize = 32;
/// Nominal time of one sample on an unloaded core of the host the
/// benchmark was calibrated on (Intel Xeon, 2 vCPUs), in seconds. They
/// only set the scale: a factor of 1 means that speed.
const CPU_NOMINAL_S: f64 = 0.005;
const RPC_NOMINAL_S: f64 = 0.0033;

/// A fixed job of `iterations` steps of the kinds of work the engines
/// do. Deterministic: the same work every call.
fn reference_job(iterations: u64) -> u64 {
    let mut rng = Rng::new(0x7265_6665);
    let mut counts: HashMap<u64, u32> = HashMap::new();
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    let mut text = String::new();
    let mut acc = 0u64;
    for i in 0..iterations {
        let k = rng.next_u64() % 4096;
        *counts.entry(k).or_insert(0) += 1;
        match i % 4 {
            0 => {
                ordered.insert(rng.next_u64() % 2048, i);
            }
            2 => {
                ordered.remove(&(rng.next_u64() % 2048));
            }
            _ => {}
        }
        if i % 8 == 0 {
            text.clear();
            let _ = write!(text, "take(s{k}, c{})", i % 40);
            acc += text.bytes().map(u64::from).sum::<u64>();
        }
        if i % 1024 == 0 {
            let mut keys: Vec<u64> = counts.keys().copied().collect();
            keys.sort_unstable();
            acc += keys[keys.len() / 2];
        }
    }
    acc + counts.len() as u64 + ordered.len() as u64
}

/// The reference's thread and the link to it. The reference runs on a
/// thread of its own so that its allocations never touch the allocator
/// state of the thread being measured.
struct Worker {
    link: Option<Link>,
    thread: Option<JoinHandle<()>>,
}

enum Link {
    /// Ask for one sample; the thread times [`CPU_JOBS`] jobs itself
    /// and sends back their median, in seconds.
    Cpu(Sender<()>, Receiver<f64>),
    /// One request line per round trip; the caller times them.
    Rpc(TcpStream, BufReader<TcpStream>),
}

impl Worker {
    fn start(reference: Reference) -> std::io::Result<Worker> {
        match reference {
            Reference::Cpu => {
                let (ask, asked) = channel::<()>();
                let (send, sent) = channel::<f64>();
                let thread = std::thread::spawn(move || {
                    while asked.recv().is_ok() {
                        let times: Vec<f64> = (0..CPU_JOBS)
                            .map(|_| {
                                let t = Instant::now();
                                black_box(reference_job(CPU_ITERATIONS));
                                t.elapsed().as_secs_f64()
                            })
                            .collect();
                        if send.send(p50(&times)).is_err() {
                            return;
                        }
                    }
                });
                Ok(Worker {
                    link: Some(Link::Cpu(ask, sent)),
                    thread: Some(thread),
                })
            }
            Reference::Rpc => {
                let listener = TcpListener::bind("127.0.0.1:0")?;
                let addr = listener.local_addr()?;
                let thread = std::thread::spawn(move || {
                    let Ok((stream, _)) = listener.accept() else {
                        return;
                    };
                    let _ = stream.set_nodelay(true);
                    let Ok(mut out) = stream.try_clone() else {
                        return;
                    };
                    let mut line = String::new();
                    let mut reader = BufReader::new(stream);
                    while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                        let reply = format!("{}\n", reference_job(RPC_ITERATIONS));
                        if out.write_all(reply.as_bytes()).is_err() {
                            return;
                        }
                        line.clear();
                    }
                });
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                let reader = BufReader::new(stream.try_clone()?);
                Ok(Worker {
                    link: Some(Link::Rpc(stream, reader)),
                    thread: Some(thread),
                })
            }
        }
    }

    /// One sample against the nominal: the reference's time over its
    /// nominal time.
    fn factor(&mut self) -> f64 {
        let stopped = "the reference worker stopped answering";
        match self.link.as_mut().expect("worker link") {
            Link::Cpu(ask, sent) => {
                ask.send(()).expect(stopped);
                sent.recv().expect(stopped) / CPU_NOMINAL_S
            }
            Link::Rpc(stream, reader) => {
                let mut reply = String::new();
                let t = Instant::now();
                for _ in 0..RPC_TRIPS {
                    reply.clear();
                    let ok = stream.write_all(b"job\n").is_ok()
                        && matches!(reader.read_line(&mut reply), Ok(n) if n > 0);
                    assert!(ok, "{stopped}");
                }
                t.elapsed().as_secs_f64() / RPC_NOMINAL_S
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Closing the link ends the thread's loop.
        if let Some(Link::Rpc(stream, _)) = &self.link {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        self.link = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Host factors sampled at the edges of consecutive slices of a run.
pub struct Speed {
    worker: Worker,
    last: f64,
    /// Every factor sampled, for the run's report.
    samples: Vec<f64>,
}

impl Speed {
    /// Starts the reference and takes the first sample, the leading
    /// edge of the first slice.
    pub fn start(reference: Reference) -> Speed {
        let mut worker = Worker::start(reference).expect("start the reference worker");
        let last = worker.factor();
        Speed {
            worker,
            last,
            samples: vec![last],
        }
    }

    /// Closes the slice that began at the previous sample: samples the
    /// host again and returns the slice's factor, the mean of the
    /// samples at its two edges.
    pub fn slice(&mut self) -> f64 {
        let next = self.worker.factor();
        self.samples.push(next);
        let f = (self.last + next) / 2.0;
        self.last = next;
        f
    }

    /// Median of every factor sampled.
    pub fn median(&self) -> f64 {
        p50(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_job_is_deterministic() {
        assert_eq!(reference_job(CPU_ITERATIONS), reference_job(CPU_ITERATIONS));
    }

    #[test]
    fn slice_factor_is_the_mean_of_its_edges() {
        for reference in [Reference::Cpu, Reference::Rpc] {
            let mut speed = Speed::start(reference);
            let first = speed.samples[0];
            let f = speed.slice();
            assert_eq!(f, (first + speed.samples[1]) / 2.0);
            assert!(speed.median() > 0.0);
        }
    }
}
