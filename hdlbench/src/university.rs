//! The serving workloads' program: the paper's §2 course-planning
//! example scaled to a few thousand facts, the what-if operations asked
//! of it, and a plain-Rust oracle for every answer.
//!
//! Students are `s0..`, courses `c0..`. A student's transcript is a bit
//! set of courses, which is all the oracle needs: every rule below only
//! relates one student's `take` facts to the shared `course`,
//! `prereq` and `required` facts, so one student's answers never depend
//! on another student's transcript.

use crate::rng::Rng;
use std::fmt::Write as _;

/// The rules: stratified negation (`missing`, `incomplete`, `grad`,
/// `blocked`, `eligible`) plus a hypothetical premise over them
/// (`one_more`).
pub const RULES: &str = "missing(S, C) :- student(S), required(C), ~take(S, C). \
     incomplete(S) :- missing(S, C). \
     grad(S) :- student(S), ~incomplete(S). \
     blocked(S, C) :- student(S), prereq(C, P), ~take(S, P). \
     eligible(S, C) :- student(S), course(C), ~take(S, C), ~blocked(S, C). \
     one_more(S) :- eligible(S, C), grad(S)[add: take(S, C)].";

/// A generated instance of the program.
#[derive(Clone, Debug)]
pub struct University {
    /// Prerequisite set of each course (bit `p` set: `prereq(c, p)`).
    prereqs: Vec<u64>,
    /// Required courses.
    required: u64,
    /// Initial transcript of each student.
    pub taken: Vec<u64>,
}

fn bit(c: usize) -> u64 {
    1 << c
}

impl University {
    /// `students × courses`, drawn from `seed`: a prerequisite DAG, a
    /// quarter of the courses required, and transcripts that miss
    /// `1 + s mod 3` required courses and hold a third of the others.
    pub fn generate(students: usize, courses: usize, seed: u64) -> University {
        assert!((4..=64).contains(&courses), "courses must fit a u64 set");
        let mut rng = Rng::new(seed);
        let mut pick = |from: &[usize], n: usize| -> u64 {
            let mut pool = from.to_vec();
            (0..n.min(pool.len()))
                .map(|_| bit(pool.swap_remove(rng.below(pool.len()))))
                .fold(0, |set, b| set | b)
        };
        let all: Vec<usize> = (0..courses).collect();
        let prereqs: Vec<u64> = (0..courses)
            .map(|c| {
                if c < 3 {
                    0
                } else {
                    pick(&all[..c], [0, 1, 1, 2][c % 4])
                }
            })
            .collect();
        let required = pick(&all, courses / 4);
        let (req, other): (Vec<usize>, Vec<usize>) =
            all.iter().partition(|&&c| required & bit(c) != 0);
        let taken = (0..students)
            .map(|s| (required & !pick(&req, 1 + s % 3)) | pick(&other, other.len() / 3))
            .collect();
        University {
            prereqs,
            required,
            taken,
        }
    }

    /// Number of students.
    pub fn students(&self) -> usize {
        self.taken.len()
    }

    /// Number of courses.
    pub fn courses(&self) -> usize {
        self.prereqs.len()
    }

    /// The program as load texts: the rules first, then the facts in
    /// chunks of at most `chunk` facts, each a single line.
    pub fn load_texts(&self, chunk: usize) -> Vec<String> {
        let mut facts = Vec::new();
        for c in 0..self.courses() {
            facts.push(format!("course(c{c})."));
            if self.required & bit(c) != 0 {
                facts.push(format!("required(c{c})."));
            }
            for p in 0..self.courses() {
                if self.prereqs[c] & bit(p) != 0 {
                    facts.push(format!("prereq(c{c}, c{p})."));
                }
            }
        }
        for (s, &t) in self.taken.iter().enumerate() {
            facts.push(format!("student(s{s})."));
            for c in 0..self.courses() {
                if t & bit(c) != 0 {
                    facts.push(format!("take(s{s}, c{c})."));
                }
            }
        }
        let mut texts = vec![RULES.to_owned()];
        texts.extend(facts.chunks(chunk).map(|c| c.join(" ")));
        texts
    }

    fn grad(&self, t: u64) -> bool {
        self.required & !t == 0
    }

    fn eligible(&self, t: u64, c: usize) -> bool {
        t & bit(c) == 0 && self.prereqs[c] & !t == 0
    }

    fn one_more(&self, t: u64) -> bool {
        (0..self.courses()).any(|c| self.eligible(t, c) && self.grad(t | bit(c)))
    }

    /// The oracle: the answer to `q` when the student's transcript is `t`.
    pub fn expected(&self, q: &Query, t: u64) -> bool {
        match *q {
            Query::GradIfTook { a, b, .. } => self.grad(t | bit(a) | bit(b)),
            Query::GradIfSwapped { add, drop, .. } => self.grad((t & !bit(drop)) | bit(add)),
            Query::EligibleIfTook { c, a, .. } => self.eligible(t | bit(a), c),
            Query::OneMoreIfTook { a, b, .. } => self.one_more(t | bit(a) | bit(b)),
        }
    }
}

/// One what-if question about one student.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// Would `s` graduate after also taking `a` and `b`?
    GradIfTook { s: usize, a: usize, b: usize },
    /// Would `s` graduate after taking `add` instead of `drop`?
    GradIfSwapped { s: usize, add: usize, drop: usize },
    /// Would `c` be open to `s` after taking `a`?
    EligibleIfTook { s: usize, c: usize, a: usize },
    /// After also taking `a` and `b`, could `s` graduate with one more
    /// course? (A hypothetical inside a hypothetical.)
    OneMoreIfTook { s: usize, a: usize, b: usize },
}

/// Course indices a query key addresses per position.
pub const KEY_RADIX: u64 = 64;
/// Percent of queries of each kind, in [`Query`] variant order.
pub type Mix = [u64; 4];

impl Query {
    /// The query `key` picks about student `s` whose transcript is `t`.
    /// Added courses come from those `s` has not taken and the dropped
    /// one from those it has, so every premise really changes the
    /// database and a query's overlay is seldom one an earlier query
    /// already built.
    /// `mix` gives the percent of each kind.
    pub fn pick(key: u64, s: usize, t: u64, courses: usize, mix: &Mix) -> Query {
        let all: Vec<usize> = (0..courses).collect();
        let untaken: Vec<usize> = all.iter().copied().filter(|&c| t & bit(c) == 0).collect();
        let taken: Vec<usize> = all.iter().copied().filter(|&c| t & bit(c) != 0).collect();
        let mut roll = key % 100;
        let kind = mix
            .iter()
            .position(|&p| {
                let hit = roll < p;
                roll = roll.wrapping_sub(p);
                hit
            })
            .expect("percentages sum to 100");
        let rest = key / 100;
        let (x, y, z) = (
            rest % KEY_RADIX,
            (rest / KEY_RADIX) % KEY_RADIX,
            (rest / KEY_RADIX / KEY_RADIX) % KEY_RADIX,
        );
        let from = |list: &[usize], i: u64| list[(i % list.len() as u64) as usize];
        // Two distinct new courses (any two when fewer are left).
        let pool = if untaken.len() >= 2 { &untaken } else { &all };
        let a = from(pool, x);
        let rest: Vec<usize> = pool.iter().copied().filter(|&c| c != a).collect();
        let b = from(&rest, y);
        match kind {
            0 => Query::GradIfTook { s, a, b },
            1 => Query::GradIfSwapped {
                s,
                add: a,
                drop: from(if taken.is_empty() { &rest } else { &taken }, y),
            },
            2 => Query::EligibleIfTook {
                s,
                c: from(&all, z),
                a,
            },
            _ => Query::OneMoreIfTook { s, a, b },
        }
    }

    /// The student the query is about.
    pub fn student(&self) -> usize {
        match *self {
            Query::GradIfTook { s, .. }
            | Query::GradIfSwapped { s, .. }
            | Query::EligibleIfTook { s, .. }
            | Query::OneMoreIfTook { s, .. } => s,
        }
    }

    /// The query as goal text (no `?-` dressing).
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = match *self {
            Query::GradIfTook { s, a, b } => {
                write!(out, "grad(s{s})[add: take(s{s}, c{a}), take(s{s}, c{b})]")
            }
            Query::GradIfSwapped { s, add, drop } => {
                write!(
                    out,
                    "grad(s{s})[add: take(s{s}, c{add}), del: take(s{s}, c{drop})]"
                )
            }
            Query::EligibleIfTook { s, c, a } => {
                write!(out, "eligible(s{s}, c{c})[add: take(s{s}, c{a})]")
            }
            Query::OneMoreIfTook { s, a, b } => {
                write!(
                    out,
                    "one_more(s{s})[add: take(s{s}, c{a}), take(s{s}, c{b})]"
                )
            }
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl_base::SymbolTable;
    use hdl_core::engine::NaiveEngine;
    use hdl_core::parser::{parse_program, parse_query, split_facts};

    /// Every query on small instances: the oracle must agree with the
    /// reference evaluator, including after transcript changes.
    #[test]
    fn oracle_agrees_with_naive_engine() {
        for seed in 0..3 {
            let mut uni = University::generate(3, 6, seed);
            if seed == 2 {
                uni.taken[1] ^= 0b101;
            }
            let mut syms = SymbolTable::new();
            let src = uni.load_texts(7).join("\n");
            let (rules, facts) = split_facts(parse_program(&src, &mut syms).unwrap());
            let db = facts.into_iter().collect();
            let mut naive = NaiveEngine::new(&rules, &db).unwrap();
            let (students, courses) = (uni.students(), uni.courses());
            assert_eq!(courses, 6);
            let (mut seen_true, mut seen_false) = (0, 0);
            // One key per kind and index triple over the 6 courses.
            let kinds = [0, 30, 60, 85];
            let keys = (0..students).flat_map(|s| {
                (0..6 * 6 * 6).flat_map(move |i| {
                    let (x, y, z) = (i % 6, i / 6 % 6, i / 36);
                    kinds.map(|k| (s, k + 100 * (x + KEY_RADIX * (y + KEY_RADIX * z))))
                })
            });
            for (s, key) in keys {
                let q = Query::pick(key, s, uni.taken[s], courses, &[25, 25, 25, 25]);
                let premise = parse_query(&format!("?- {}.", q.text()), &mut syms).unwrap();
                let want = uni.expected(&q, uni.taken[q.student()]);
                assert_eq!(naive.holds(&premise).unwrap(), want, "{}", q.text());
                if want {
                    seen_true += 1;
                } else {
                    seen_false += 1;
                }
            }
            assert!(seen_true > 0 && seen_false > 0, "both verdicts exercised");
        }
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        let a = University::generate(256, 40, 7);
        let b = University::generate(256, 40, 7);
        assert_eq!(a.taken, b.taken);
        let texts = a.load_texts(64);
        let facts: usize = texts[1..].iter().map(|t| t.matches(").").count()).sum();
        assert!((4000..7000).contains(&facts), "{facts} facts");
    }
}
