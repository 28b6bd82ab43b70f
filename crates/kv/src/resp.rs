//! A RESP-style wire protocol for the key-value store.
//!
//! Baseline Redis clients send commands as serialized byte strings over a
//! socket; the server parses, executes, and serializes a reply. RedisJMP
//! clients execute the same command-handling code directly, so both paths
//! share this module (parsing costs stay comparable, as in the paper).
//!
//! The encoding follows the Redis Serialization Protocol: arrays of bulk
//! strings for commands (`*2\r\n$3\r\nGET\r\n$1\r\nk\r\n`), and simple
//! strings / errors / integers / bulk strings for replies.

/// A client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `GET key` — fetch a value.
    Get(Vec<u8>),
    /// `SET key value` — store a value.
    Set(Vec<u8>, Vec<u8>),
    /// `DEL key` — remove a key.
    Del(Vec<u8>),
    /// `INCR key` — increment an integer value.
    Incr(Vec<u8>),
    /// `APPEND key value` — append to a value.
    Append(Vec<u8>, Vec<u8>),
}

/// A client command whose arguments borrow from elsewhere: from the
/// wire bytes it was parsed from, or from the caller's key and value.
/// Encoding and parsing one touches no host heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandRef<'a> {
    /// `GET key`.
    Get(&'a [u8]),
    /// `SET key value`.
    Set(&'a [u8], &'a [u8]),
    /// `DEL key`.
    Del(&'a [u8]),
    /// `INCR key`.
    Incr(&'a [u8]),
    /// `APPEND key value`.
    Append(&'a [u8], &'a [u8]),
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `+OK`.
    Ok,
    /// Bulk string (`None` = nil).
    Bulk(Option<Vec<u8>>),
    /// Integer reply.
    Int(i64),
    /// Error reply.
    Error(String),
}

/// Protocol errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RespError {
    /// Input ended prematurely or is malformed.
    Malformed(&'static str),
    /// Unknown command name.
    UnknownCommand,
    /// Wrong number of arguments.
    Arity,
}

impl std::fmt::Display for RespError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RespError::Malformed(what) => write!(f, "malformed protocol data: {what}"),
            RespError::UnknownCommand => write!(f, "unknown command"),
            RespError::Arity => write!(f, "wrong number of arguments"),
        }
    }
}

impl std::error::Error for RespError {}

/// Every verb [`CommandRef::parse`] knows, for telling a wrong argument
/// count from an unknown verb.
const VERBS: [&[u8]; 5] = [b"GET", b"SET", b"DEL", b"INCR", b"APPEND"];

/// Appends `n` in decimal.
fn decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends a length line: `tag`, `n` in decimal, CRLF.
fn length_line(out: &mut Vec<u8>, tag: u8, n: usize) {
    out.push(tag);
    decimal(out, n as u64);
    out.extend_from_slice(b"\r\n");
}

fn bulk(out: &mut Vec<u8>, data: &[u8]) {
    length_line(out, b'$', data.len());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

impl<'a> CommandRef<'a> {
    /// Appends the command's RESP bytes to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (verb, key, val): (&[u8], &[u8], Option<&[u8]>) = match *self {
            CommandRef::Get(k) => (b"GET", k, None),
            CommandRef::Set(k, v) => (b"SET", k, Some(v)),
            CommandRef::Del(k) => (b"DEL", k, None),
            CommandRef::Incr(k) => (b"INCR", k, None),
            CommandRef::Append(k, v) => (b"APPEND", k, Some(v)),
        };
        length_line(out, b'*', 2 + usize::from(val.is_some()));
        bulk(out, verb);
        bulk(out, key);
        if let Some(v) = val {
            bulk(out, v);
        }
    }

    /// Parses a command from RESP bytes; the arguments are slices of
    /// `input`. The verb matches in any letter case.
    ///
    /// # Errors
    ///
    /// [`RespError`] for malformed input, unknown verbs, or bad arity.
    /// The whole array is checked before the verb is looked at.
    pub fn parse(input: &'a [u8]) -> Result<CommandRef<'a>, RespError> {
        let (head, mut rest) = split_line(input)?;
        if head.first() != Some(&b'*') {
            return Err(RespError::Malformed("expected array"));
        }
        let count = parse_len(&head[1..]).ok_or(RespError::Malformed("bad array length"))?;
        if count > 64 {
            return Err(RespError::Malformed("array too long"));
        }
        // Only the verb and up to two arguments are kept: a longer
        // array is an arity error for every verb.
        let mut parts: [&[u8]; 3] = [&[]; 3];
        for i in 0..count {
            let (head, body) = split_line(rest)?;
            if head.first() != Some(&b'$') {
                return Err(RespError::Malformed("expected bulk string"));
            }
            let len = parse_len(&head[1..]).ok_or(RespError::Malformed("bad bulk length"))?;
            let (data, tail) = bulk_body(body, len)?;
            if let Some(part) = parts.get_mut(i) {
                *part = data;
            }
            rest = tail;
        }
        if count == 0 {
            return Err(RespError::Malformed("empty command array"));
        }
        let [verb, a, b] = parts;
        let is = |name: &[u8]| verb.eq_ignore_ascii_case(name);
        Ok(match count {
            2 if is(b"GET") => CommandRef::Get(a),
            3 if is(b"SET") => CommandRef::Set(a, b),
            2 if is(b"DEL") => CommandRef::Del(a),
            2 if is(b"INCR") => CommandRef::Incr(a),
            3 if is(b"APPEND") => CommandRef::Append(a, b),
            _ if VERBS.iter().any(|v| is(v)) => return Err(RespError::Arity),
            _ => return Err(RespError::UnknownCommand),
        })
    }
}

impl<'a> From<&'a Command> for CommandRef<'a> {
    fn from(cmd: &'a Command) -> Self {
        match cmd {
            Command::Get(k) => CommandRef::Get(k),
            Command::Set(k, v) => CommandRef::Set(k, v),
            Command::Del(k) => CommandRef::Del(k),
            Command::Incr(k) => CommandRef::Incr(k),
            Command::Append(k, v) => CommandRef::Append(k, v),
        }
    }
}

impl From<CommandRef<'_>> for Command {
    fn from(cmd: CommandRef<'_>) -> Self {
        match cmd {
            CommandRef::Get(k) => Command::Get(k.to_vec()),
            CommandRef::Set(k, v) => Command::Set(k.to_vec(), v.to_vec()),
            CommandRef::Del(k) => Command::Del(k.to_vec()),
            CommandRef::Incr(k) => Command::Incr(k.to_vec()),
            CommandRef::Append(k, v) => Command::Append(k.to_vec(), v.to_vec()),
        }
    }
}

impl Command {
    /// Serializes the command to RESP bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        CommandRef::from(self).encode_into(&mut out);
        out
    }

    /// Parses a command from RESP bytes: [`CommandRef::parse`], with
    /// the arguments copied out.
    ///
    /// # Errors
    ///
    /// As [`CommandRef::parse`].
    pub fn parse(input: &[u8]) -> Result<Command, RespError> {
        CommandRef::parse(input).map(Command::from)
    }
}

impl Reply {
    /// Serializes the reply to RESP bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Reply::Ok => b"+OK\r\n".to_vec(),
            Reply::Bulk(Some(data)) => {
                let mut out = Vec::with_capacity(data.len() + 16);
                bulk(&mut out, data);
                out
            }
            Reply::Bulk(None) => b"$-1\r\n".to_vec(),
            Reply::Int(i) => {
                let mut out = vec![b':'];
                if *i < 0 {
                    out.push(b'-');
                }
                decimal(&mut out, i.unsigned_abs());
                out.extend_from_slice(b"\r\n");
                out
            }
            Reply::Error(e) => format!("-ERR {e}\r\n").into_bytes(),
        }
    }

    /// Parses a reply from RESP bytes.
    ///
    /// # Errors
    ///
    /// [`RespError::Malformed`] for anything unrecognized.
    pub fn parse(input: &[u8]) -> Result<Reply, RespError> {
        let (line, rest) = split_line(input)?;
        match line.first() {
            Some(b'+') => Ok(Reply::Ok),
            Some(b'-') => {
                let msg = String::from_utf8_lossy(&line[1..]).into_owned();
                Ok(Reply::Error(
                    msg.strip_prefix("ERR ").unwrap_or(&msg).to_string(),
                ))
            }
            Some(b':') => {
                let s = std::str::from_utf8(&line[1..])
                    .map_err(|_| RespError::Malformed("non-utf8 integer"))?;
                Ok(Reply::Int(
                    s.parse().map_err(|_| RespError::Malformed("bad integer"))?,
                ))
            }
            Some(b'$') => {
                let n: i64 = std::str::from_utf8(&line[1..])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or(RespError::Malformed("bad bulk length"))?;
                if n < 0 {
                    return Ok(Reply::Bulk(None));
                }
                let (data, _) = bulk_body(rest, n as usize)?;
                Ok(Reply::Bulk(Some(data.to_vec())))
            }
            _ => Err(RespError::Malformed("unknown reply type")),
        }
    }
}

fn split_line(input: &[u8]) -> Result<(&[u8], &[u8]), RespError> {
    let pos = input
        .windows(2)
        .position(|w| w == b"\r\n")
        .ok_or(RespError::Malformed("missing CRLF"))?;
    Ok((&input[..pos], &input[pos + 2..]))
}

/// A length field: decimal digits, as `usize`'s `FromStr` reads them.
fn parse_len(field: &[u8]) -> Option<usize> {
    std::str::from_utf8(field).ok()?.parse().ok()
}

/// Splits a bulk string's `len` data bytes and their CRLF off `body`;
/// returns the data and what follows. Any `len` is safe: one too large
/// for `body` is a short body, not an overflow.
fn bulk_body(body: &[u8], len: usize) -> Result<(&[u8], &[u8]), RespError> {
    match body.get(len..) {
        Some(tail) if tail.starts_with(b"\r\n") => Ok((&body[..len], &tail[2..])),
        _ => Err(RespError::Malformed("short bulk body")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjmp_sim::SimRng;

    #[test]
    fn command_round_trips() {
        let cmds = [
            Command::Get(b"key".to_vec()),
            Command::Set(b"key".to_vec(), b"value".to_vec()),
            Command::Del(b"k".to_vec()),
            Command::Incr(b"counter".to_vec()),
            Command::Append(b"log".to_vec(), b"entry".to_vec()),
        ];
        for cmd in cmds {
            let bytes = cmd.encode();
            assert_eq!(Command::parse(&bytes).unwrap(), cmd, "{bytes:?}");
        }
    }

    #[test]
    fn reply_round_trips() {
        let replies = [
            Reply::Ok,
            Reply::Bulk(Some(b"data".to_vec())),
            Reply::Bulk(None),
            Reply::Int(-42),
            Reply::Error("boom".into()),
        ];
        for r in replies {
            let bytes = r.encode();
            assert_eq!(Reply::parse(&bytes).unwrap(), r, "{bytes:?}");
        }
    }

    #[test]
    fn wire_format_matches_resp() {
        assert_eq!(
            Command::Get(b"k".to_vec()).encode(),
            b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n".to_vec()
        );
        assert_eq!(Reply::Ok.encode(), b"+OK\r\n".to_vec());
        assert_eq!(Reply::Bulk(None).encode(), b"$-1\r\n".to_vec());
    }

    #[test]
    fn case_insensitive_verbs() {
        let mut bytes = Command::Get(b"k".to_vec()).encode();
        let pos = bytes.windows(3).position(|w| w == b"GET").unwrap();
        bytes[pos..pos + 3].copy_from_slice(b"get");
        assert_eq!(Command::parse(&bytes).unwrap(), Command::Get(b"k".to_vec()));
    }

    #[test]
    fn malformed_inputs_rejected() {
        let malformed = RespError::Malformed;
        let cases: [(&[u8], RespError); 15] = [
            (b"", malformed("missing CRLF")),
            (b"*1\r\n$3\r\nFOO\r\n", RespError::UnknownCommand),
            (b"*1\r\n$3\r\nGET\r\n", RespError::Arity),
            (
                b"*2\r\n$3\r\nGET\r\n$9\r\nshort\r\n",
                malformed("short bulk body"),
            ),
            (b"+OK\r\n", malformed("expected array")),
            (b"*0\r\n", malformed("empty command array")),
            (b"*65\r\n", malformed("array too long")),
            (b"*x\r\n", malformed("bad array length")),
            (b"*1\r\n+GET\r\n", malformed("expected bulk string")),
            (b"*1\r\n$x\r\nGET\r\n", malformed("bad bulk length")),
            (b"*1\r\n$3\r\nGETxx", malformed("short bulk body")),
            (b"*2\r\n$3\r\nget\r\n", malformed("missing CRLF")),
            // The whole array parses before the verb is looked at.
            (
                b"*2\r\n$3\r\nFOO\r\n$9\r\nshort\r\n",
                malformed("short bulk body"),
            ),
            (
                b"*4\r\n$3\r\nSET\r\n$1\r\na\r\n$1\r\nb\r\n$1\r\nc\r\n",
                RespError::Arity,
            ),
            (
                b"*4\r\n$3\r\nBAD\r\n$1\r\na\r\n$1\r\nb\r\n$1\r\nc\r\n",
                RespError::UnknownCommand,
            ),
        ];
        for (input, err) in cases {
            assert_eq!(Command::parse(input), Err(err), "{input:?}");
        }
        assert_eq!(Reply::parse(b"?\r\n"), Err(malformed("unknown reply type")));
        assert_eq!(
            Reply::parse(b"$5\r\nab\r\n"),
            Err(malformed("short bulk body"))
        );
    }

    #[test]
    fn huge_bulk_lengths_are_malformed_not_a_panic() {
        let inputs: [&[u8]; 2] = [
            b"*1\r\n$18446744073709551615\r\nx",
            b"*1\r\n$18446744073709551614\r\nxy",
        ];
        for input in inputs {
            assert_eq!(
                Command::parse(input),
                Err(RespError::Malformed("short bulk body")),
                "{input:?}"
            );
        }
        assert_eq!(
            Reply::parse(b"$9223372036854775807\r\nab\r\n"),
            Err(RespError::Malformed("short bulk body"))
        );
    }

    #[test]
    fn reply_bulk_body_needs_its_crlf() {
        assert_eq!(
            Reply::parse(b"$2\r\nabXY"),
            Err(RespError::Malformed("short bulk body"))
        );
        assert_eq!(
            Reply::parse(b"$2\r\nab\r\n"),
            Ok(Reply::Bulk(Some(b"ab".to_vec())))
        );
    }

    /// 0–300 random bytes, a quarter of them CR or LF.
    fn payload(rng: &mut SimRng) -> Vec<u8> {
        (0..rng.index(301))
            .map(|_| match rng.bounded(8) {
                0 => b'\r',
                1 => b'\n',
                _ => rng.next_u64() as u8,
            })
            .collect()
    }

    #[test]
    fn seeded_commands_round_trip_in_any_verb_case() {
        let mut rng = SimRng::seed_from_u64(0x5e5d);
        let mut wire = Vec::new();
        for case in 0..1500 {
            let (key, val) = (payload(&mut rng), payload(&mut rng));
            let cmd = match case % 5 {
                0 => Command::Get(key),
                1 => Command::Set(key, val),
                2 => Command::Del(key),
                3 => Command::Incr(key),
                _ => Command::Append(key, val),
            };
            let encoded = cmd.encode();
            wire.clear();
            CommandRef::from(&cmd).encode_into(&mut wire);
            assert_eq!(wire, encoded, "{cmd:?}");
            // The verb is the body of the second line: upper case as
            // encoded, then lower, then mixed.
            let verb_at = wire.windows(2).position(|w| w == b"\r\n").unwrap() + 2;
            let verb_at = verb_at
                + wire[verb_at..]
                    .windows(2)
                    .position(|w| w == b"\r\n")
                    .unwrap()
                + 2;
            let verb_end = verb_at
                + wire[verb_at..]
                    .windows(2)
                    .position(|w| w == b"\r\n")
                    .unwrap();
            for b in &mut wire[verb_at..verb_end] {
                match (case / 5) % 3 {
                    0 => {}
                    1 => b.make_ascii_lowercase(),
                    _ if rng.gen_ratio(1, 2) => b.make_ascii_lowercase(),
                    _ => {}
                }
            }
            assert_eq!(Command::parse(&wire), Ok(cmd.clone()), "{wire:?}");
            assert_eq!(CommandRef::parse(&wire), Ok(CommandRef::from(&cmd)));
        }
    }

    #[test]
    fn binary_safe_payloads() {
        let cmd = Command::Set(vec![0, 1, 2, b'\r', b'\n'], vec![255, 0, 128]);
        assert_eq!(Command::parse(&cmd.encode()).unwrap(), cmd);
    }
}
