//! Wire codec for serving over the channel mesh: a tiny, explicit
//! little-endian framing (no external serialisation crates — the workspace
//! is hermetic).

use crate::error::{RejectReason, ServeError};
use crate::job::{JobResult, JobSpec};
use chroma_mini::{CgReport, HmcReport};

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a job on the sender's tenant.
    Job(JobSpec),
    /// The client is done; the server releases its per-peer loop.
    Bye,
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Job completed.
    Ok(JobResult),
    /// Job failed (admission rejection or runtime error).
    Err(ServeError),
}

/// Codec failure (malformed frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at + n;
        if end > self.buf.len() {
            return Err(WireError(format!(
                "truncated frame: need {n} bytes at {}, have {}",
                self.at,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|e| WireError(format!("bad utf8: {e}")))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.at != self.buf.len() {
            return Err(WireError(format!(
                "{} trailing bytes",
                self.buf.len() - self.at
            )));
        }
        Ok(())
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode a client request.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    match req {
        Request::Bye => out.push(0xFF),
        Request::Job(spec) => {
            out.push(0x01);
            match spec {
                JobSpec::Plaquette => out.push(0),
                JobSpec::CgSolve {
                    mass,
                    seed,
                    tol,
                    max_iters,
                } => {
                    out.push(1);
                    out.extend_from_slice(&mass.to_le_bytes());
                    out.extend_from_slice(&seed.to_le_bytes());
                    out.extend_from_slice(&tol.to_le_bytes());
                    out.extend_from_slice(&max_iters.to_le_bytes());
                }
                JobSpec::HmcTrajectory { beta, dt, n_steps } => {
                    out.push(2);
                    out.extend_from_slice(&beta.to_le_bytes());
                    out.extend_from_slice(&dt.to_le_bytes());
                    out.extend_from_slice(&n_steps.to_le_bytes());
                }
            }
        }
    }
    out
}

/// Decode a client request.
pub fn decode_request(buf: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(buf);
    let req = match r.u8()? {
        0xFF => Request::Bye,
        0x01 => Request::Job(match r.u8()? {
            0 => JobSpec::Plaquette,
            1 => JobSpec::CgSolve {
                mass: r.f64()?,
                seed: r.u64()?,
                tol: r.f64()?,
                max_iters: r.u32()?,
            },
            2 => JobSpec::HmcTrajectory {
                beta: r.f64()?,
                dt: r.f64()?,
                n_steps: r.u32()?,
            },
            t => return Err(WireError(format!("unknown job tag {t}"))),
        }),
        t => return Err(WireError(format!("unknown request tag {t}"))),
    };
    r.done()?;
    Ok(req)
}

/// Encode a server response.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    match resp {
        Response::Ok(result) => {
            out.push(0x00);
            match result {
                JobResult::Plaquette(p) => {
                    out.push(0);
                    out.extend_from_slice(&p.to_le_bytes());
                }
                JobResult::CgSolve(r) => {
                    out.push(1);
                    out.extend_from_slice(&(r.iters as u32).to_le_bytes());
                    out.extend_from_slice(&r.rel_resid.to_le_bytes());
                    out.push(r.converged as u8);
                }
                JobResult::Hmc(r) => {
                    out.push(2);
                    out.extend_from_slice(&r.delta_h.to_le_bytes());
                    out.push(r.accepted as u8);
                    out.extend_from_slice(&r.plaquette.to_le_bytes());
                    out.extend_from_slice(&r.kinetic_start.to_le_bytes());
                }
            }
        }
        Response::Err(e) => {
            out.push(0x01);
            match e {
                ServeError::Rejected(RejectReason::QueueFull { cap }) => {
                    out.push(0);
                    out.extend_from_slice(&(*cap as u32).to_le_bytes());
                }
                ServeError::Rejected(RejectReason::TenantBusy { cap }) => {
                    out.push(1);
                    out.extend_from_slice(&(*cap as u32).to_le_bytes());
                }
                ServeError::Rejected(RejectReason::ShuttingDown) => out.push(2),
                ServeError::UnknownTenant(t) => {
                    out.push(3);
                    out.extend_from_slice(&(*t as u32).to_le_bytes());
                }
                ServeError::Job(msg) => {
                    out.push(4);
                    push_str(&mut out, msg);
                }
                ServeError::Disconnected => out.push(5),
            }
        }
    }
    out
}

/// Decode a server response.
pub fn decode_response(buf: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(buf);
    let resp = match r.u8()? {
        0x00 => Response::Ok(match r.u8()? {
            0 => JobResult::Plaquette(r.f64()?),
            1 => JobResult::CgSolve(CgReport {
                iters: r.u32()? as usize,
                rel_resid: r.f64()?,
                converged: r.u8()? != 0,
            }),
            2 => JobResult::Hmc(HmcReport {
                delta_h: r.f64()?,
                accepted: r.u8()? != 0,
                plaquette: r.f64()?,
                kinetic_start: r.f64()?,
            }),
            t => return Err(WireError(format!("unknown result tag {t}"))),
        }),
        0x01 => Response::Err(match r.u8()? {
            0 => ServeError::Rejected(RejectReason::QueueFull {
                cap: r.u32()? as usize,
            }),
            1 => ServeError::Rejected(RejectReason::TenantBusy {
                cap: r.u32()? as usize,
            }),
            2 => ServeError::Rejected(RejectReason::ShuttingDown),
            3 => ServeError::UnknownTenant(r.u32()? as usize),
            4 => ServeError::Job(r.str()?),
            5 => ServeError::Disconnected,
            t => return Err(WireError(format!("unknown error tag {t}"))),
        }),
        t => return Err(WireError(format!("unknown response tag {t}"))),
    };
    r.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Bye,
            Request::Job(JobSpec::Plaquette),
            Request::Job(JobSpec::CgSolve {
                mass: 0.4,
                seed: 77,
                tol: 1e-8,
                max_iters: 200,
            }),
            Request::Job(JobSpec::HmcTrajectory {
                beta: 5.5,
                dt: 0.01,
                n_steps: 10,
            }),
        ] {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Ok(JobResult::Plaquette(0.984_375)),
            Response::Ok(JobResult::CgSolve(CgReport {
                iters: 42,
                rel_resid: 3.2e-9,
                converged: true,
            })),
            Response::Ok(JobResult::Hmc(HmcReport {
                delta_h: -0.002,
                accepted: true,
                plaquette: 0.97,
                kinetic_start: 1031.25,
            })),
            Response::Err(ServeError::Rejected(RejectReason::QueueFull { cap: 64 })),
            Response::Err(ServeError::Rejected(RejectReason::TenantBusy { cap: 4 })),
            Response::Err(ServeError::Rejected(RejectReason::ShuttingDown)),
            Response::Err(ServeError::UnknownTenant(9)),
            Response::Err(ServeError::Job("boom".into())),
            Response::Err(ServeError::Disconnected),
        ] {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_frames_error_cleanly() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x42]).is_err());
        assert!(decode_request(&[0x01, 1, 0, 0]).is_err()); // truncated
        assert!(decode_response(&[0x00, 7]).is_err());
        // trailing garbage is rejected, not ignored
        let mut ok = encode_request(&Request::Bye);
        ok.push(0);
        assert!(decode_request(&ok).is_err());
    }
}
