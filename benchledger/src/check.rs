//! The correctness gate: every output the engine returns is compared
//! bitwise with the interpreter's output for the same call.

use majic::{ExecMode, Majic, RuntimeResult, Value};
use majic_runtime::Lcg;

/// Every bit of a call's outputs: class, shape and `f64::to_bits` of
/// each element.
pub fn digest(outs: &[Value]) -> Vec<u64> {
    let mut d = vec![outs.len() as u64];
    for v in outs {
        let (r, c) = v.dims();
        match v {
            Value::Real(m) => {
                d.extend([0, r as u64, c as u64]);
                d.extend(m.iter().map(|x| x.to_bits()));
            }
            Value::Complex(m) => {
                d.extend([1, r as u64, c as u64]);
                d.extend(m.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]));
            }
            Value::Bool(m) => {
                d.extend([2, r as u64, c as u64]);
                d.extend(m.iter().map(|&b| b as u64));
            }
            Value::Str(s) => {
                d.extend([3, s.len() as u64]);
                d.extend(s.bytes().map(u64::from));
            }
        }
    }
    d
}

/// Reference outputs from [`ExecMode::Interpret`], one interpreter
/// session per program. A program that never calls `rand` gives the
/// same outputs on every call, so its digest is computed once; a
/// program that does is re-interpreted for every call, starting from
/// the generator state the engine's session had before that call.
pub struct Reference {
    sessions: Vec<Majic>,
    cached: Vec<Option<Vec<u64>>>,
    uses_rand: Vec<bool>,
}

impl Reference {
    pub fn new(sources: &[&str]) -> Reference {
        let sessions = sources
            .iter()
            .map(|src| {
                let mut m = Majic::with_mode(ExecMode::Interpret);
                m.load_source(src).expect("Table-1 program parses");
                m
            })
            .collect();
        Reference {
            sessions,
            cached: vec![None; sources.len()],
            uses_rand: sources.iter().map(|s| s.contains("rand")).collect(),
        }
    }

    /// The digest the interpreter produces for program `p`'s call of
    /// `entry(args)` when the calling session's generator is at `rng`.
    pub fn expect(
        &mut self,
        p: usize,
        entry: &str,
        args: &[Value],
        rng: &Lcg,
    ) -> RuntimeResult<Vec<u64>> {
        if let Some(d) = &self.cached[p] {
            return Ok(d.clone());
        }
        let m = &mut self.sessions[p];
        m.interp_mut().ctx.rng = rng.clone();
        let d = digest(&m.call(entry, args, 1)?);
        if !self.uses_rand[p] {
            self.cached[p] = Some(d.clone());
        }
        Ok(d)
    }
}
