//! The baseline single-threaded Redis-style server.
//!
//! One process owns the store, switched into its data VAS permanently;
//! clients reach it over UNIX-domain sockets, whose per-message kernel
//! costs [`crate::bench::run_classic`] charges.
//! The command execution path (parse -> dict -> encode) is shared with
//! RedisJMP — only the transport differs, which is exactly the comparison
//! Section 5.3 makes.

use sjmp_mem::VirtAddr;
use sjmp_os::kernel::GLOBAL_LO;
use sjmp_os::{Creds, Mode, Pid};
use spacejmp_core::{AttachMode, RetryPolicy, SjResult, SpaceJmp, VasHeap};

use crate::dict::{DictStats, SegDict};
use crate::resp::{Command, Reply};

/// Size of each server instance's data segment.
pub const STORE_SEGMENT_BYTES: u64 = 8 << 20;

/// Cycles of Redis command machinery around the raw dictionary operation
/// (object construction, SDS handling, dispatch, reply building). Charged
/// identically on the classic and RedisJMP paths, since RedisJMP clients
/// execute the same server code directly.
pub const COMMAND_OVERHEAD: u64 = 3000;

/// The error INCR replies with when the stored value is `i64::MAX`
/// (Redis's wording); the value is left as it was.
pub(crate) const INCR_OVERFLOW: &str = "increment or decrement would overflow";

/// INCR on `dict` as `pid`, for [`RedisServer::execute`] and
/// [`JmpClient::incr`](crate::JmpClient::incr) alike: parses the value as
/// an integer (absent is 0), adds one and stores it back. `Ok(Err(..))`
/// holds the error reply's text, and then the value is left as it was.
pub(crate) fn incr(
    dict: &mut SegDict,
    sj: &mut SpaceJmp,
    pid: Pid,
    key: &[u8],
    stats: &mut DictStats,
) -> SjResult<Result<i64, &'static str>> {
    let current = match dict.get(sj, pid, key)? {
        None => 0,
        Some(bytes) => match std::str::from_utf8(&bytes)
            .ok()
            .and_then(|s| s.parse::<i64>().ok())
        {
            Some(n) => n,
            None => return Ok(Err("value is not an integer")),
        },
    };
    let Some(next) = current.checked_add(1) else {
        return Ok(Err(INCR_OVERFLOW));
    };
    dict.set(sj, pid, key, next.to_string().as_bytes(), true, stats)?;
    Ok(Ok(next))
}

/// APPEND on `dict` as `pid`, shared the same way: appends `val` to the
/// value (absent is empty) and returns the new length.
pub(crate) fn append(
    dict: &mut SegDict,
    sj: &mut SpaceJmp,
    pid: Pid,
    key: &[u8],
    val: &[u8],
    stats: &mut DictStats,
) -> SjResult<usize> {
    let mut cur = dict.get(sj, pid, key)?.unwrap_or_default();
    cur.extend_from_slice(val);
    dict.set(sj, pid, key, &cur, true, stats)?;
    Ok(cur.len())
}

/// A running server instance.
#[derive(Debug)]
pub struct RedisServer {
    pid: Pid,
    dict: SegDict,
    stats: DictStats,
    requests: u64,
}

impl RedisServer {
    /// Launches instance `idx`: spawns the server process, creates its
    /// data VAS and segment (each instance gets its own 512 GiB-aligned
    /// slot), and initializes the dictionary.
    ///
    /// # Errors
    ///
    /// Propagates SpaceJMP failures.
    pub fn launch(sj: &mut SpaceJmp, idx: usize) -> SjResult<RedisServer> {
        let pid = sj
            .kernel_mut()
            .spawn(&format!("redis-{idx}"), Creds::new(600, 600))?;
        sj.kernel_mut().activate(pid)?;
        let base = VirtAddr::new(GLOBAL_LO.raw() + (idx as u64) * (1 << 39));
        let vid = sj.vas_create(pid, &format!("redis-vas-{idx}"), Mode(0o600))?;
        let sid = sj.seg_alloc(
            pid,
            &format!("redis-data-{idx}"),
            base,
            STORE_SEGMENT_BYTES,
            Mode(0o600),
        )?;
        sj.seg_attach(pid, vid, sid, AttachMode::ReadWrite)?;
        let vh = sj.vas_attach(pid, vid)?;
        // The store VAS is freshly created, but a restarted instance can
        // race a not-yet-reaped predecessor's lock — back off rather than
        // fail the launch.
        sj.vas_switch_retry(pid, vh, &RetryPolicy::default())?;
        let heap = VasHeap::format(sj, pid, sid)?;
        let dict = SegDict::create(sj, pid, heap)?;
        Ok(RedisServer {
            pid,
            dict,
            stats: DictStats::default(),
            requests: 0,
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Dictionary statistics.
    pub fn dict_stats(&self) -> DictStats {
        self.stats
    }

    /// Executes a parsed command against the store.
    ///
    /// # Errors
    ///
    /// Propagates memory/heap failures (protocol-level problems become
    /// [`Reply::Error`] instead).
    pub fn execute(&mut self, sj: &mut SpaceJmp, cmd: &Command) -> SjResult<Reply> {
        self.requests += 1;
        sj.kernel().clock().advance(COMMAND_OVERHEAD);
        let pid = self.pid;
        Ok(match cmd {
            Command::Get(k) => Reply::Bulk(self.dict.get(sj, pid, k)?),
            Command::Set(k, v) => {
                self.dict.set(sj, pid, k, v, true, &mut self.stats)?;
                Reply::Ok
            }
            Command::Del(k) => {
                let existed = self.dict.del(sj, pid, k, true, &mut self.stats)?;
                Reply::Int(existed as i64)
            }
            Command::Incr(k) => match incr(&mut self.dict, sj, pid, k, &mut self.stats)? {
                Ok(next) => Reply::Int(next),
                Err(e) => Reply::Error(e.into()),
            },
            Command::Append(k, v) => {
                Reply::Int(append(&mut self.dict, sj, pid, k, v, &mut self.stats)? as i64)
            }
        })
    }

    /// Full server loop body for one request: parse, execute, encode.
    ///
    /// # Errors
    ///
    /// Propagates memory/heap failures.
    pub fn handle_request(&mut self, sj: &mut SpaceJmp, raw: &[u8]) -> SjResult<Vec<u8>> {
        let reply = match Command::parse(raw) {
            Ok(cmd) => self.execute(sj, &cmd)?,
            Err(e) => Reply::Error(e.to_string()),
        };
        Ok(reply.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjmp_mem::{KernelFlavor, MachineId};
    use sjmp_os::Kernel;

    fn setup() -> (SpaceJmp, RedisServer) {
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
        let server = RedisServer::launch(&mut sj, 0).unwrap();
        (sj, server)
    }

    #[test]
    fn get_set_del_incr_append() {
        let (mut sj, mut s) = setup();
        assert_eq!(
            s.execute(&mut sj, &Command::Get(b"x".to_vec())).unwrap(),
            Reply::Bulk(None)
        );
        assert_eq!(
            s.execute(&mut sj, &Command::Set(b"x".to_vec(), b"1".to_vec()))
                .unwrap(),
            Reply::Ok
        );
        assert_eq!(
            s.execute(&mut sj, &Command::Get(b"x".to_vec())).unwrap(),
            Reply::Bulk(Some(b"1".to_vec()))
        );
        assert_eq!(
            s.execute(&mut sj, &Command::Incr(b"x".to_vec())).unwrap(),
            Reply::Int(2)
        );
        assert_eq!(
            s.execute(&mut sj, &Command::Append(b"x".to_vec(), b"30".to_vec()))
                .unwrap(),
            Reply::Int(3)
        );
        assert_eq!(
            s.execute(&mut sj, &Command::Get(b"x".to_vec())).unwrap(),
            Reply::Bulk(Some(b"230".to_vec()))
        );
        assert_eq!(
            s.execute(&mut sj, &Command::Del(b"x".to_vec())).unwrap(),
            Reply::Int(1)
        );
        assert_eq!(
            s.execute(&mut sj, &Command::Del(b"x".to_vec())).unwrap(),
            Reply::Int(0)
        );
    }

    #[test]
    fn incr_non_integer_is_an_error() {
        let (mut sj, mut s) = setup();
        s.execute(&mut sj, &Command::Set(b"x".to_vec(), b"abc".to_vec()))
            .unwrap();
        assert!(matches!(
            s.execute(&mut sj, &Command::Incr(b"x".to_vec())).unwrap(),
            Reply::Error(_)
        ));
    }

    #[test]
    fn incr_overflow_is_an_error_reply_and_keeps_the_value() {
        let (mut sj, mut s) = setup();
        let max = i64::MAX.to_string();
        let set = Command::Set(b"n".to_vec(), max.clone().into_bytes()).encode();
        assert_eq!(s.handle_request(&mut sj, &set).unwrap(), b"+OK\r\n");
        let incr = Command::Incr(b"n".to_vec()).encode();
        let reply = s.handle_request(&mut sj, &incr).unwrap();
        assert_eq!(
            Reply::parse(&reply).unwrap(),
            Reply::Error(INCR_OVERFLOW.to_string())
        );
        let get = Command::Get(b"n".to_vec()).encode();
        let reply = s.handle_request(&mut sj, &get).unwrap();
        assert_eq!(
            Reply::parse(&reply).unwrap(),
            Reply::Bulk(Some(max.into_bytes()))
        );
    }

    #[test]
    fn handle_request_wire_level() {
        let (mut sj, mut s) = setup();
        let set = Command::Set(b"k".to_vec(), b"v".to_vec()).encode();
        assert_eq!(
            s.handle_request(&mut sj, &set).unwrap(),
            b"+OK\r\n".to_vec()
        );
        let get = Command::Get(b"k".to_vec()).encode();
        let resp = s.handle_request(&mut sj, &get).unwrap();
        assert_eq!(
            Reply::parse(&resp).unwrap(),
            Reply::Bulk(Some(b"v".to_vec()))
        );
        // Garbage gets an error reply, not a crash.
        let resp = s.handle_request(&mut sj, b"garbage").unwrap();
        assert!(matches!(Reply::parse(&resp).unwrap(), Reply::Error(_)));
        assert_eq!(s.requests(), 2);
    }

    #[test]
    fn multiple_instances_coexist() {
        let mut sj = SpaceJmp::new(Kernel::new(KernelFlavor::DragonFly, MachineId::M1));
        let mut servers: Vec<RedisServer> = (0..3)
            .map(|i| RedisServer::launch(&mut sj, i).unwrap())
            .collect();
        for (i, s) in servers.iter_mut().enumerate() {
            let k = format!("inst{i}");
            s.execute(
                &mut sj,
                &Command::Set(k.clone().into_bytes(), vec![i as u8]),
            )
            .unwrap();
        }
        for (i, s) in servers.iter_mut().enumerate() {
            let k = format!("inst{i}");
            assert_eq!(
                s.execute(&mut sj, &Command::Get(k.into_bytes())).unwrap(),
                Reply::Bulk(Some(vec![i as u8]))
            );
        }
    }
}
