#!/usr/bin/env python3
"""Line-protocol client for the `slc serve` CI smoke.

Streams an event file into the daemon's Unix socket, half-closes, and
writes everything the daemon sends back (NDJSON records) to a file.
With --hup PID --at-line N it pauses after N lines, sends SIGHUP to the
daemon, and resumes — the mid-stream hot-reload drill. With --slow it
reads the reply in 4 KiB reads with pauses while a thread sends (the
daemon's incremental records would otherwise fill both socket buffers
before the half-close), and with --status FILE it also saves a
`GET /status` reply scraped while the daemon drains its EOF dump
(scraping every 64 KiB of reply after the half-close until the
connection shows mode "done") — the slow-reader drill.
"""

import argparse
import os
import signal
import socket
import sys
import threading
import time


def scrape(sock, path):
    s = socket.socket(socket.AF_UNIX)
    s.settimeout(30)
    s.connect(sock)
    s.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    s.shutdown(socket.SHUT_WR)
    buf = b""
    while True:
        d = s.recv(1 << 16)
        if not d:
            break
        buf += d
    s.close()
    return buf


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("sock")
    ap.add_argument("events")
    ap.add_argument("out")
    ap.add_argument("--hup", type=int, default=0, metavar="PID")
    ap.add_argument("--at-line", type=int, default=0, metavar="N")
    ap.add_argument("--slow", action="store_true")
    ap.add_argument("--status", default="", metavar="FILE")
    args = ap.parse_args()

    with open(args.events, "rb") as f:
        lines = f.readlines()

    s = socket.socket(socket.AF_UNIX)
    s.settimeout(120)
    s.connect(args.sock)

    def send():
        if args.hup:
            cut = min(args.at_line, len(lines))
            s.sendall(b"".join(lines[:cut]))
            time.sleep(0.3)  # let the daemon drain the first half
            os.kill(args.hup, signal.SIGHUP)
            time.sleep(0.5)  # and commit the reload between loop rounds
            s.sendall(b"".join(lines[cut:]))
        else:
            s.sendall(b"".join(lines))
        s.shutdown(socket.SHUT_WR)

    sender = threading.Thread(target=send)
    if args.slow:
        sender.start()
    else:
        send()

    buf = bytearray()
    reads = 0
    scrape_at = None  # reply bytes in at the next /status scrape
    while True:
        d = s.recv(4096 if args.slow else 1 << 16)
        if not d:
            break
        buf += d
        reads += 1
        if args.slow and reads % 16 == 0:
            time.sleep(0.002)
        if scrape_at is None and not sender.is_alive():
            scrape_at = len(buf) + (1 << 16)
        if args.status and scrape_at is not None and len(buf) >= scrape_at:
            body = scrape(args.sock, "/status")
            with open(args.status, "wb") as f:
                f.write(body)
            if b'"mode": "done"' in body:
                args.status = ""
            scrape_at = len(buf) + (1 << 16)
    if args.slow:
        sender.join()
    s.close()

    with open(args.out, "wb") as f:
        f.write(buf)
    return 0


if __name__ == "__main__":
    sys.exit(main())
