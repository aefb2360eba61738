//! A fixed calibration loop that tracks this host's speed. It is the
//! benchmark's own code (a small register-bytecode interpreter, so its
//! mix of dispatch branches, loads and floating point resembles the
//! VM's), and no change to the engine moves it. Latencies are reported
//! rescaled to the host speed at which one pass takes [`REF_MS`].

use crate::stats::quantile;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A pass's 10th-percentile duration on the reference host's fast
/// mode (2-core x86-64 build host).
pub const REF_MS: f64 = 2.75;
const CODE_LEN: usize = 3000;
const STEPS: usize = 1_000_000;
/// Sample at most this often, so the loop costs a few percent of a run.
const PERIOD: Duration = Duration::from_millis(100);
/// The same while a set-up is timed: set-ups are short, and the passes'
/// time is taken out of theirs.
const SETUP_PERIOD: Duration = Duration::from_millis(25);

pub struct Calibration {
    code: Vec<u8>,
    mem: Vec<f64>,
    last: Option<Instant>,
    /// Duration of each pass of the timed phase, ms.
    pub samples: Vec<f64>,
    /// The set-up being timed, if any: its passes go here instead.
    window: Option<Window>,
}

/// Calibration passes taken while one set-up was timed.
#[derive(Default)]
pub struct Window {
    /// Duration of each pass, ms.
    pub passes: Vec<f64>,
    /// Wall time the passes inside the set-up took, to be taken out
    /// of its duration.
    pub inside: Duration,
}

impl Window {
    /// The factor that rescales the set-up to the reference speed:
    /// `REF_MS` over the median of the passes around and inside it.
    pub fn scale(&self) -> f64 {
        REF_MS / quantile(&self.passes, 0.5)
    }
}

impl Calibration {
    pub fn new() -> Calibration {
        // A fixed program: the calibration must not depend on the seed.
        let mut z = 7u64;
        let code = (0..CODE_LEN)
            .map(|_| {
                z = z
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (z >> 56) as u8
            })
            .collect();
        Calibration {
            code,
            mem: vec![0.5; 4096],
            last: None,
            samples: Vec::new(),
            window: None,
        }
    }

    /// Time one pass if a sampling period has passed since the last one.
    pub fn tick(&mut self) {
        let period = if self.window.is_some() {
            SETUP_PERIOD
        } else {
            PERIOD
        };
        if self.last.is_some_and(|t| t.elapsed() < period) {
            return;
        }
        let t = Instant::now();
        let ms = self.pass();
        match &mut self.window {
            Some(w) => {
                w.passes.push(ms);
                w.inside += t.elapsed();
            }
            None => self.samples.push(ms),
        }
        self.last = Some(Instant::now());
    }

    /// Duration of one pass, ms.
    pub fn pass(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.run(black_box(STEPS)));
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Start timing a set-up: one pass now, then [`Calibration::tick`]
    /// samples into the set-up's window until [`Calibration::end_window`].
    pub fn begin_window(&mut self) {
        let first = self.pass();
        self.window = Some(Window {
            passes: vec![first],
            inside: Duration::ZERO,
        });
        self.last = Some(Instant::now());
    }

    /// Finish the set-up's window with one more pass.
    pub fn end_window(&mut self) -> Window {
        let mut w = self.window.take().unwrap_or_default();
        w.passes.push(self.pass());
        self.last = Some(Instant::now());
        w
    }

    /// The factor that rescales latencies measured across the timed
    /// phase: `REF_MS` over the 10th percentile of its passes.
    pub fn scale_run(&self) -> f64 {
        REF_MS / quantile(&self.samples, 0.10)
    }

    fn run(&mut self, steps: usize) -> f64 {
        let (code, mem) = (&self.code, &mut self.mem);
        let mut r = [1.0f64; 16];
        let (mut pc, mut acc) = (0usize, 0u64);
        for _ in 0..steps {
            let a = (code[pc + 1] & 15) as usize;
            let b = (code[pc + 2] & 15) as usize;
            match code[pc] & 7 {
                0 => r[a] += r[b],
                1 => r[a] = r[a] * 0.999 + r[b] * 0.001,
                2 => r[a] = mem[(acc as usize * 31 + b) & 4095],
                3 => mem[(acc as usize * 17 + a) & 4095] = r[b],
                4 => acc += if r[a] > r[b] { 1 } else { 3 },
                5 => r[a] = r[b].abs().sqrt() + 0.1,
                6 => {
                    acc = acc
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(r[a] as u64)
                }
                _ => r[a] = -r[a],
            }
            pc += 3;
            if pc + 3 > code.len() {
                pc = 0;
            }
        }
        r.iter().sum::<f64>() + acc as f64
    }
}
