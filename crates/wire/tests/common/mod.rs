//! Generators the wire property tests share: strings every codec carries,
//! dates, doubles, `Value` trees and responses, each a function of the
//! case's [`Rng`].

use clarens_search::Rng;
use clarens_wire::datetime::DateTime;
use clarens_wire::{Fault, RpcResponse, Value};

/// Strings valid in all our codecs (XML 1.0 cannot carry arbitrary control
/// characters even escaped — the parser rejects NUL — so keep to printable
/// characters and common whitespace; coverage for control characters is in
/// the unit tests): up to 23 chars, each from one of five blocks drawn
/// evenly. The Latin-1 and Cyrillic blocks exercise multibyte UTF-8.
pub fn wire_string(rng: &mut Rng) -> String {
    let blocks = [' '..='~', '\n'..='\n', '\t'..='\t', '¡'..='ÿ', 'А'..='я'];
    (0..rng.below(24))
        .map(|_| {
            let block = rng.choose(&blocks).clone();
            rng.char(&[block])
        })
        .collect()
}

pub fn datetime(rng: &mut Rng) -> DateTime {
    let year = 1970 + rng.below(130) as i32;
    let (month, day) = (rng.pick(1, 12) as u8, rng.pick(1, 28) as u8);
    let (hour, minute, second) = (
        rng.below(24) as u8,
        rng.below(60) as u8,
        rng.below(60) as u8,
    );
    DateTime::new(year, month, day, hour, minute, second).unwrap()
}

/// A double drawn uniformly from `lo..hi`.
pub fn uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    lo + unit * (hi - lo)
}

/// A `Value` tree at most three levels deep: at each level a leaf or, as
/// often, an array or a struct of up to three subtrees. Leaves are drawn
/// evenly from the first `kinds` of nil, bool, int, double (from
/// `double`), string, bytes and datetime: 5 is JSON's image of the
/// algebra, 7 all of it.
pub fn value(rng: &mut Rng, double: fn(&mut Rng) -> f64, kinds: usize) -> Value {
    tree(rng, double, kinds, 3)
}

fn tree(rng: &mut Rng, double: fn(&mut Rng) -> f64, kinds: usize, depth: u32) -> Value {
    if depth == 0 || rng.chance(50) {
        return match rng.below(kinds) {
            0 => Value::Nil,
            1 => Value::Bool(rng.chance(50)),
            2 => Value::Int(rng.next_u64() as i64),
            3 => Value::Double(double(rng)),
            4 => Value::Str(wire_string(rng)),
            5 => Value::Bytes(rng.bytes(0..32)),
            _ => Value::DateTime(datetime(rng)),
        };
    }
    let subtree = |rng: &mut Rng| tree(rng, double, kinds, depth - 1);
    if rng.chance(50) {
        Value::Array((0..rng.below(4)).map(|_| subtree(rng)).collect())
    } else {
        let entries = (0..rng.below(4)).map(|_| (wire_string(rng), subtree(rng)));
        Value::Struct(entries.collect())
    }
}

/// A success holding any `Value` (doubles from `double`), or a fault.
pub fn response(rng: &mut Rng, double: fn(&mut Rng) -> f64) -> RpcResponse {
    if rng.chance(50) {
        RpcResponse::Success(value(rng, double, 7))
    } else {
        let code = rng.next_u64() as i64;
        RpcResponse::Fault(Fault::new(code, wire_string(rng)))
    }
}
