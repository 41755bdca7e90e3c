//! Newp: the Hacker News-like aggregator of Figure 1. Interleaved cache
//! joins collate an article, its vote rank, its comments, and each
//! commenter's karma into one contiguous `page|` range so rendering an
//! article is a single scan.
//!
//! Run with `cargo run --example newp_pages`.

use pequod::core::Engine;
use pequod::prelude::*;
use pequod::workloads::newp::{NEWP_BASE_JOINS, NEWP_PAGE_JOINS};

/// `voter` votes for `author`'s article `article`.
fn vote(site: &mut Engine, author: &str, article: &str, voter: &str) {
    site.put(format!("vote|{author}|{article}|{voter}"), "1");
}

fn main() {
    let mut site = Engine::new(EngineConfig::default());
    site.add_joins_text(NEWP_BASE_JOINS).unwrap();
    site.add_joins_text(NEWP_PAGE_JOINS).unwrap();

    // kat authors an article; people vote and comment.
    site.put(
        "article|n000007|0000001",
        "Cache joins considered delightful",
    );
    vote(&mut site, "n000007", "0000001", "n000021");
    vote(&mut site, "n000007", "0000001", "n000022");
    site.put("comment|n000007|0000001|000001|n000042", "great read!");
    // commenter 42's karma comes from votes on their own article
    site.put("article|n000042|0000009", "An older post");
    for voter in ["n000007", "n000021", "n000022"] {
        vote(&mut site, "n000042", "0000009", voter);
    }

    // One ordered scan renders the whole page.
    let page = site.scan(&KeyRange::prefix("page|n000007|0000001|"));
    println!("page|n000007|0000001| scan:");
    for (k, v) in &page.pairs {
        println!("  {k} = {}", String::from_utf8_lossy(v));
    }
    // |a article, |c comment, |k commenter karma, |r rank
    assert_eq!(page.pairs.len(), 4);

    // A new vote updates the rank *inside the page* incrementally.
    vote(&mut site, "n000007", "0000001", "n000023");
    let rank = site.get(&Key::from("page|n000007|0000001|r")).unwrap();
    println!(
        "\nafter one more vote, rank = {}",
        String::from_utf8_lossy(&rank)
    );
    assert_eq!(&rank[..], b"3");

    // And a vote on the commenter's own article updates their karma in
    // every page where they commented.
    vote(&mut site, "n000042", "0000009", "n000023");
    let karma = site.get(&Key::from("page|n000007|0000001|k|000001|n000042"));
    let karma = karma.unwrap();
    println!(
        "commenter karma on the page = {}",
        String::from_utf8_lossy(&karma)
    );
    assert_eq!(&karma[..], b"4");
}
